// Property/fuzz battery for the WAN compression seam (common/compress.h)
// and the packed-payload codec (protocol/wan_codec.h).
//
// Contract under test:
//  * round-trip identity over random, incompressible, repetitive, empty
//    and 1-byte buffers;
//  * every truncation and every sampled bit flip of the wire bytes is
//    either rejected (DecodePayload false) or decodes to the exact
//    original content — never a crash, never silently different bytes
//    (the content hash is the last line of defence);
//  * the packed entry/write formats reject malformed input totally.
//
// The whole file runs under ASan/UBSan in the sanitize CI job (ctest
// label: compress), which is what "never crash" means in practice.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "common/compress.h"
#include "protocol/wan_codec.h"

namespace geotp {
namespace {

using common::ContentHash64;
using common::DecodePayload;
using common::EncodePayload;
using common::WireCodec;
using protocol::ReplEntry;
using protocol::ReplWrite;

std::string RandomBytes(std::mt19937_64* rng, size_t len) {
  std::string out(len, '\0');
  for (char& c : out) c = static_cast<char>((*rng)() & 0xFF);
  return out;
}

/// Structured-ish data resembling packed records: long runs of zero-heavy
/// little-endian integers — the shape the block codec must actually
/// compress on the WAN paths.
std::string RecordLikeBytes(std::mt19937_64* rng, size_t records) {
  std::vector<ReplWrite> writes;
  writes.reserve(records);
  for (size_t i = 0; i < records; ++i) {
    ReplWrite w;
    w.key.table = 1;
    w.key.key = 1000 + i;
    w.value = static_cast<int64_t>((*rng)() % 100);
    writes.push_back(w);
  }
  return protocol::PackWrites(writes);
}

void ExpectRoundTrip(WireCodec want, const std::string& raw) {
  std::string wire;
  const WireCodec used = EncodePayload(want, raw, &wire);
  std::string back;
  ASSERT_TRUE(
      DecodePayload(used, wire, raw.size(), ContentHash64(raw), &back))
      << "len=" << raw.size();
  EXPECT_EQ(back, raw);
}

TEST(ContentHash, StableAndSensitive) {
  EXPECT_EQ(ContentHash64(std::string()), 14695981039346656037ULL);
  const std::string a = "geo-distributed";
  std::string b = a;
  b[3] ^= 1;
  EXPECT_NE(ContentHash64(a), ContentHash64(b));
  EXPECT_EQ(ContentHash64(a), ContentHash64(std::string(a)));
}

TEST(BlockCodec, RoundTripAdversarialShapes) {
  std::mt19937_64 rng(0xC0DEC);
  ExpectRoundTrip(WireCodec::kBlock, "");            // empty
  ExpectRoundTrip(WireCodec::kBlock, "x");           // 1 byte
  ExpectRoundTrip(WireCodec::kBlock, "abcd");        // exactly min-match
  ExpectRoundTrip(WireCodec::kBlock, std::string(100000, 'z'));  // RLE
  ExpectRoundTrip(WireCodec::kBlock, RandomBytes(&rng, 65537));  // random
  // Long literal run (> 15+255 forces the length-extension path).
  ExpectRoundTrip(WireCodec::kBlock, RandomBytes(&rng, 5000));
  // Repetitive with period > min-match.
  std::string periodic;
  for (int i = 0; i < 4000; ++i) periodic += "pattern-17-bytes!";
  ExpectRoundTrip(WireCodec::kBlock, periodic);
  for (int trial = 0; trial < 50; ++trial) {
    ExpectRoundTrip(WireCodec::kBlock, RandomBytes(&rng, rng() % 4096));
    ExpectRoundTrip(WireCodec::kBlock, RecordLikeBytes(&rng, rng() % 512));
  }
}

TEST(BlockCodec, IncompressibleFallsBackToRaw) {
  std::mt19937_64 rng(7);
  const std::string raw = RandomBytes(&rng, 2048);
  std::string wire;
  const WireCodec used = EncodePayload(WireCodec::kBlock, raw, &wire);
  // Uniform random bytes cannot shrink: the envelope must ship them raw
  // rather than expanded.
  EXPECT_EQ(used, WireCodec::kRaw);
  EXPECT_EQ(wire, raw);
}

TEST(BlockCodec, CompressesRecordPayloads) {
  std::mt19937_64 rng(42);
  const std::string raw = RecordLikeBytes(&rng, 1024);
  std::string wire;
  const WireCodec used = EncodePayload(WireCodec::kBlock, raw, &wire);
  ASSERT_EQ(used, WireCodec::kBlock);
  // The acceptance gate on the log-shipping path is 2x; packed records
  // must clear it with margin at the codec level.
  EXPECT_LT(wire.size() * 2, raw.size())
      << "ratio=" << static_cast<double>(raw.size()) / wire.size();
}

TEST(BlockCodec, TruncationAlwaysRejected) {
  std::mt19937_64 rng(0xBADF00D);
  const std::string raw = RecordLikeBytes(&rng, 256);
  std::string wire;
  const WireCodec used = EncodePayload(WireCodec::kBlock, raw, &wire);
  ASSERT_EQ(used, WireCodec::kBlock);
  const uint64_t hash = ContentHash64(raw);
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    std::string truncated = wire.substr(0, cut);
    std::string back;
    EXPECT_FALSE(DecodePayload(used, truncated, raw.size(), hash, &back))
        << "cut=" << cut;
  }
}

TEST(BlockCodec, BitFlipsNeverYieldWrongContent) {
  std::mt19937_64 rng(0xF11B5);
  const std::string raw = RecordLikeBytes(&rng, 200);
  std::string wire;
  const WireCodec used = EncodePayload(WireCodec::kBlock, raw, &wire);
  ASSERT_EQ(used, WireCodec::kBlock);
  const uint64_t hash = ContentHash64(raw);
  for (size_t i = 0; i < wire.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = wire;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      std::string back;
      // Either rejected outright or — if the stream still parses — the
      // content hash catches it. A flip can never produce accepted-but-
      // different bytes.
      if (DecodePayload(used, flipped, raw.size(), hash, &back)) {
        EXPECT_EQ(back, raw) << "byte " << i << " bit " << bit;
      }
    }
  }
}

TEST(BlockCodec, WrongLengthOrHashRejected) {
  const std::string raw = std::string(500, 'q');
  std::string wire;
  const WireCodec used = EncodePayload(WireCodec::kBlock, raw, &wire);
  std::string back;
  EXPECT_FALSE(DecodePayload(used, wire, raw.size() + 1,
                             ContentHash64(raw), &back));
  EXPECT_FALSE(DecodePayload(used, wire, raw.size() - 1,
                             ContentHash64(raw), &back));
  EXPECT_FALSE(DecodePayload(used, wire, raw.size(),
                             ContentHash64(raw) ^ 1, &back));
  EXPECT_TRUE(DecodePayload(used, wire, raw.size(),
                            ContentHash64(raw), &back));
  // A forged giant uncompressed_len must not allocate its way to an OOM.
  EXPECT_FALSE(DecodePayload(used, wire, size_t{1} << 40,
                             ContentHash64(raw), &back));
}

TEST(BlockCodec, RandomGarbageNeverCrashes) {
  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string garbage = RandomBytes(&rng, rng() % 512);
    std::string back;
    // Most garbage is rejected; any accept must still match the hash we
    // demand, which garbage cannot forge. Either way: no crash, no OOB.
    DecodePayload(WireCodec::kBlock, garbage, rng() % 1024, rng(), &back);
  }
}

TEST(Negotiation, MaskAndPick) {
  EXPECT_TRUE(common::SupportedCodecMask() & common::kCodecRawBit);
  EXPECT_TRUE(common::SupportedCodecMask() & common::kCodecBlockBit);
  // Peer advertises nothing (pre-negotiation actor): raw.
  EXPECT_EQ(common::PickWireCodec(0, true), WireCodec::kRaw);
  // Peer supports block but local knob is off: raw.
  EXPECT_EQ(common::PickWireCodec(common::SupportedCodecMask(), false),
            WireCodec::kRaw);
  // Both sides capable and willing: block.
  EXPECT_EQ(common::PickWireCodec(
                common::kCodecRawBit | common::kCodecBlockBit, true),
            WireCodec::kBlock);
}

TEST(WanCodec, WritesRoundTripAndIdentity) {
  std::mt19937_64 rng(5);
  std::vector<ReplWrite> writes;
  for (int i = 0; i < 300; ++i) {
    ReplWrite w;
    w.key.table = static_cast<uint32_t>(rng() % 4);
    w.key.key = rng();
    w.value = static_cast<int64_t>(rng());
    writes.push_back(w);
  }
  const std::string packed = protocol::PackWrites(writes);
  std::vector<ReplWrite> back;
  ASSERT_TRUE(protocol::UnpackWrites(packed, &back));
  ASSERT_EQ(back.size(), writes.size());
  for (size_t i = 0; i < writes.size(); ++i) {
    EXPECT_EQ(back[i].key, writes[i].key);
    EXPECT_EQ(back[i].value, writes[i].value);
  }
  // Determinism: the hash IS the chunk identity in the re-seed handshake,
  // so packing the same records twice must produce identical bytes.
  EXPECT_EQ(packed, protocol::PackWrites(writes));
  // Truncations reject totally.
  for (size_t cut = 0; cut < packed.size(); cut += 3) {
    std::vector<ReplWrite> scratch;
    EXPECT_FALSE(protocol::UnpackWrites(packed.substr(0, cut), &scratch));
  }
}

TEST(WanCodec, EntriesRoundTrip) {
  std::vector<ReplEntry> entries;
  for (uint64_t i = 1; i <= 40; ++i) {
    ReplEntry e;
    e.index = i;
    e.epoch = 3;
    e.type = protocol::ReplEntryType::kCommit;
    e.xid = Xid{100 + i, 2};
    e.coordinator = 1;
    e.at = static_cast<Micros>(i * 17);
    for (uint64_t j = 0; j < i % 5; ++j) {
      e.writes.push_back(ReplWrite{RecordKey{1, i * 10 + j},
                                   static_cast<int64_t>(j)});
    }
    if (i == 7) {
      auto m = std::make_shared<protocol::MigrationRecord>();
      m->migration_id = 77;
      m->range = sharding::ShardRange{1, 100, 200, 3, 9};
      m->dest = 4;
      m->dest_leader = 12;
      m->new_version = 9;
      m->balancer = 1;
      m->timeout = 5000;
      m->delta_next_seq = 6;
      e.migration = m;
    }
    e.ingest_migration_id = i % 3 == 0 ? 8 : 0;
    e.ingest_chunk_seq = i % 3 == 0 ? 2 : 0;
    e.ingest_content_hash = i % 3 == 0 ? 0xABCDEFu : 0;
    entries.push_back(std::move(e));
  }
  const std::string packed = protocol::PackEntries(entries);
  std::vector<ReplEntry> back;
  ASSERT_TRUE(protocol::UnpackEntries(packed, &back));
  ASSERT_EQ(back.size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(back[i].index, entries[i].index);
    EXPECT_EQ(back[i].epoch, entries[i].epoch);
    EXPECT_EQ(back[i].xid, entries[i].xid);
    EXPECT_EQ(back[i].writes.size(), entries[i].writes.size());
    EXPECT_EQ(back[i].ingest_content_hash, entries[i].ingest_content_hash);
    EXPECT_EQ(back[i].migration != nullptr,
              entries[i].migration != nullptr);
  }
  ASSERT_NE(back[6].migration, nullptr);
  EXPECT_EQ(back[6].migration->migration_id, 77u);
  EXPECT_EQ(back[6].migration->delta_next_seq, 6u);
  for (size_t cut = 0; cut < packed.size(); cut += 7) {
    std::vector<ReplEntry> scratch;
    EXPECT_FALSE(protocol::UnpackEntries(packed.substr(0, cut), &scratch));
  }
}

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

// Golden layout: the packed bytes are persisted indirectly (their
// ContentHash64 is the chunk identity a destination journals and a re-seed
// offer is declined by), so any change to field order or width would
// orphan every journaled chunk. Pin the exact bytes and hashes.
TEST(WanCodec, GoldenPackedLayout) {
  const std::vector<ReplWrite> writes = {
      ReplWrite{RecordKey{1, 5}, 50},
      ReplWrite{RecordKey{2, 0x0102030405060708ull}, -3}};
  const std::string packed_writes = protocol::PackWrites(writes);
  EXPECT_EQ(Hex(packed_writes),
            "02000000"                                          // count
            "01000000" "0500000000000000" "3200000000000000"    // {1, 5} 50
            "02000000" "0807060504030201" "fdffffffffffffff");  // ... -3
  EXPECT_EQ(ContentHash64(packed_writes), 0x2bd4fc0250c2ca91ull);

  ReplEntry commit;
  commit.index = 11;
  commit.epoch = 2;
  commit.type = protocol::ReplEntryType::kCommit;
  commit.xid = Xid{77, 3};
  commit.coordinator = 1;
  commit.writes = {ReplWrite{RecordKey{1, 5}, 50}};
  commit.at = 12345;
  commit.ingest_migration_id = 8;
  commit.ingest_chunk_seq = 2;
  commit.ingest_content_hash = 0x9e3779b97f4a7c15ull;
  ReplEntry begin;
  begin.index = 12;
  begin.epoch = 2;
  begin.type = protocol::ReplEntryType::kMigrationBegin;
  begin.xid = Xid{0, 3};
  begin.at = 12400;
  auto record = std::make_shared<protocol::MigrationRecord>();
  record->migration_id = 8;
  record->range = sharding::ShardRange{1, 100, 200, 4, 9};
  record->dest = 5;
  record->dest_leader = 6;
  record->new_version = 10;
  record->balancer = 1;
  record->timeout = 500000;
  record->delta_next_seq = 4;
  begin.migration = record;
  const std::string packed_entries = protocol::PackEntries({commit, begin});
  EXPECT_EQ(Hex(packed_entries),
            "02000000"  // count
            // commit: index, epoch, type, xid, coordinator, at
            "0b00000000000000" "0200000000000000" "01"
            "4d00000000000000" "03000000" "01000000" "3930000000000000"
            "01000000" "01000000" "0500000000000000" "3200000000000000"
            "00"  // no migration record
            "0800000000000000" "0200000000000000" "0000000000000000"
            "157c4a7fb979379e"
            // migration begin: same header, no writes, then the record
            "0c00000000000000" "0200000000000000" "03"
            "0000000000000000" "03000000" "ffffffff" "7030000000000000"
            "00000000"
            "01"
            "0800000000000000"  // migration_id, then the range
            "01000000" "6400000000000000" "c800000000000000" "04000000"
            "0900000000000000"
            "05000000" "06000000" "0a00000000000000" "01000000"
            "20a1070000000000" "0400000000000000"
            "0000000000000000" "0000000000000000" "0000000000000000"
            "0000000000000000");
  EXPECT_EQ(ContentHash64(packed_entries), 0x8e73dd7398bc38f0ull);
}

// Forged counts and enum bytes reject the payload before any allocation
// proportional to the forged count.
TEST(WanCodec, ForgedPayloadsRejected) {
  const std::string max_count(4, '\xff');
  std::vector<ReplWrite> writes;
  EXPECT_FALSE(protocol::UnpackWrites(max_count, &writes));
  std::vector<ReplEntry> entries;
  EXPECT_FALSE(protocol::UnpackEntries(max_count, &entries));

  ReplEntry entry;
  entry.index = 1;
  entry.writes = {ReplWrite{RecordKey{1, 5}, 50}};
  const std::string packed = protocol::PackEntries({entry});
  ASSERT_TRUE(protocol::UnpackEntries(packed, &entries));
  // The entry's writes count: after the batch count, index, epoch, type,
  // xid, coordinator and at.
  std::string forged = packed;
  forged.replace(4 + 8 + 8 + 1 + 12 + 4 + 8, 4, max_count);
  EXPECT_FALSE(protocol::UnpackEntries(forged, &entries));
  forged = packed;
  forged[4 + 8 + 8] = '\x7f';  // entry type past kMigrationEnd
  EXPECT_FALSE(protocol::UnpackEntries(forged, &entries));
}

TEST(WanCodec, SealOpenAppendEnvelope) {
  protocol::ReplAppendRequest req;
  req.group = 2;
  req.epoch = 1;
  for (uint64_t i = 1; i <= 64; ++i) {
    ReplEntry e;
    e.index = i;
    e.epoch = 1;
    e.xid = Xid{i, 2};
    e.writes.push_back(ReplWrite{RecordKey{1, 1000 + i}, 5});
    req.entries.push_back(std::move(e));
  }
  const size_t plain_count = req.entries.size();
  const auto bytes =
      protocol::SealAppendPayload(WireCodec::kBlock, &req);
  ASSERT_TRUE(req.entries.empty());
  ASSERT_FALSE(req.payload.empty());
  EXPECT_LT(bytes.wire, bytes.raw);  // structured entries must compress
  ASSERT_TRUE(protocol::OpenAppendPayload(&req));
  EXPECT_EQ(req.entries.size(), plain_count);
  EXPECT_TRUE(req.payload.empty());
  // Corrupt envelope: flip a payload byte — the open must fail whole.
  protocol::ReplAppendRequest corrupt;
  corrupt.entries = req.entries;
  protocol::SealAppendPayload(WireCodec::kBlock, &corrupt);
  corrupt.payload[corrupt.payload.size() / 2] ^= 0x20;
  EXPECT_FALSE(protocol::OpenAppendPayload(&corrupt));
}

TEST(WanCodec, SealOpenChunkEnvelope) {
  protocol::ShardSnapshotChunk chunk;
  chunk.migration_id = 9;
  chunk.seq = 3;
  for (uint64_t i = 0; i < 256; ++i) {
    chunk.records.push_back(
        ReplWrite{RecordKey{1, 5000 + i}, static_cast<int64_t>(i % 7)});
  }
  const std::string packed = protocol::PackWrites(chunk.records);
  const auto bytes =
      protocol::SealChunkPayload(WireCodec::kBlock, &chunk);
  EXPECT_EQ(bytes.raw, packed.size());
  EXPECT_EQ(chunk.content_hash, ContentHash64(packed));
  ASSERT_TRUE(chunk.records.empty());
  ASSERT_TRUE(protocol::OpenChunkPayload(&chunk));
  EXPECT_EQ(chunk.records.size(), 256u);
  // Raw sealing still stamps the hash (re-seed identity) and keeps the
  // plain records for pre-negotiation receivers.
  protocol::ShardSnapshotChunk raw_chunk;
  raw_chunk.records = chunk.records;
  protocol::SealChunkPayload(WireCodec::kRaw, &raw_chunk);
  EXPECT_EQ(raw_chunk.content_hash, ContentHash64(packed));
  EXPECT_FALSE(raw_chunk.records.empty());
  EXPECT_TRUE(raw_chunk.payload.empty());
}

}  // namespace
}  // namespace geotp
