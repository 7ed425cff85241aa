#include "storage/persistence.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/varint.h"
#include "storage/cold_segment.h"

namespace esdb {

namespace {

namespace fs = std::filesystem;

// Manifest format v4. The magic names the format of every file the
// manifest lists as well: segment files whose index terms and sketch
// bytes follow the value order of document/slot.h (one encoding per
// value: -0.0 and NaN canonical, ints past 2^53 exact) and end with
// the column-stats trailer, and cold files holding such segments. A
// manifest with any other magic is rejected; no older format is read.
constexpr char kManifestMagic[] = "ESDBSHARD4";

std::string SegmentFileName(uint64_t id, uint64_t num_deleted) {
  return "seg-" + std::to_string(id) + "-" + std::to_string(num_deleted) +
         ".seg";
}

// Cold files are immutable per id: the payload never changes after
// demotion (deletes live in the manifest's overlay bitmap), so no
// <nd> suffix is needed and an existing file is never rewritten.
std::string ColdFileName(uint64_t id) {
  return "cold-" + std::to_string(id) + ".cold";
}

// Packs a tombstone overlay (possibly null) into num_docs bits.
std::string PackOverlayBits(const Tombstones* tombstones, size_t num_docs) {
  std::string out;
  out.reserve((num_docs + 7) / 8);
  for (size_t i = 0; i < num_docs; i += 8) {
    uint8_t byte = 0;
    for (size_t b = 0; b < 8 && i + b < num_docs; ++b) {
      if (tombstones != nullptr && tombstones->Test(DocId(i + b))) {
        byte |= uint8_t(1u << b);
      }
    }
    out.push_back(char(byte));
  }
  return out;
}

// The translog file is versioned by its sequence range, exactly as
// segment files are versioned by (id, folded tombstones): entries are
// immutable once assigned a sequence, so (begin, end) names immutable
// content, a checkpoint with a different retained range lands in a NEW
// file, and the committed manifest's translog file is never renamed
// over mid-save. Without this, a crash between the translog rename and
// the MANIFEST rename could pair an old manifest with a translog
// truncated by a later Flush — losing the ops in between.
std::string TranslogFileName(uint64_t begin_seq, uint64_t end_seq) {
  return "translog-" + std::to_string(begin_seq) + "-" +
         std::to_string(end_seq) + ".log";
}

// Atomic file write: data lands in a .tmp sibling, then renames over
// `path`. A crash at any point leaves either the old file or the new
// one — never a partial.
Status WriteFileAtomic(const fs::path& path, std::string_view data) {
  const fs::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Internal("cannot open for write: " + tmp.string());
    }
    out.write(data.data(), std::streamsize(data.size()));
    out.flush();
    if (!out) return Status::Internal("write failed: " + tmp.string());
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    return Status::Internal("rename failed: " + path.string() + ": " +
                            ec.message());
  }
  return Status::OK();
}

Result<std::string> ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open: " + path.string());
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) return Status::Internal("read failed: " + path.string());
  return data;
}

// Drops committed-checkpoint leftovers: .tmp files from an interrupted
// save and segment files the new manifest no longer references. Runs
// only after the MANIFEST rename, so nothing recoverable is touched.
void CollectGarbage(const fs::path& dir,
                    const std::vector<std::string>& live_files) {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (entry.path().extension() == ".tmp") {
      fs::remove(entry.path(), ec);
      continue;
    }
    if (entry.path().extension() != ".seg" &&
        entry.path().extension() != ".log" &&
        entry.path().extension() != ".cold") {
      continue;
    }
    if (std::find(live_files.begin(), live_files.end(), name) ==
        live_files.end()) {
      fs::remove(entry.path(), ec);
    }
  }
}

}  // namespace

std::string RecoveryReport::ToString() const {
  std::string out = "segments_loaded=" + std::to_string(segments_loaded) +
                    " ops_replayed=" + std::to_string(ops_replayed) +
                    " ops_skipped=" + std::to_string(ops_skipped) +
                    " ops_discarded=" + std::to_string(ops_discarded);
  if (torn_tail) out += " (torn translog tail truncated)";
  return out;
}

Status SaveShard(const ShardStore& store, const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create directory: " + dir + ": " +
                            ec.message());
  }

  // Segment files, each with its tombstone overlay folded into the
  // file's delete bitmap so deletes survive the checkpoint. The file
  // name carries the folded tombstone count: overlays only grow (a
  // merge produces a fresh id), so (id, count) names immutable
  // content and a grown overlay lands in a NEW file, leaving the one
  // the committed manifest references untouched until the new
  // manifest commits.
  const SegmentSnapshot snapshot = store.Snapshot();
  struct SegmentEntry {
    uint64_t id = 0;
    uint64_t num_deleted = 0;
    bool cold = false;
    std::string overlay_bits;  // cold only
  };
  std::vector<SegmentEntry> segment_ids;
  std::vector<std::string> live_files;
  for (const SegmentView& view : *snapshot) {
    const uint64_t num_deleted = view.num_deleted();
    if (view.is_cold()) {
      // Cold segment: copy the immutable compressed file into the
      // checkpoint dir (RAM-resident payloads are materialized here);
      // the overlay rides in the manifest so post-demotion deletes
      // never force a cold-file rewrite.
      const std::string name = ColdFileName(view.id());
      live_files.push_back(name);
      const fs::path path = fs::path(dir) / name;
      if (!fs::exists(path)) {
        // Crash point: the process dies writing a cold file
        // mid-checkpoint; the previous checkpoint stays recoverable.
        if (ESDB_FAIL_POINT(failsite::kColdWrite)) {
          return Status::Internal("failpoint: tier/cold-write");
        }
        ESDB_ASSIGN_OR_RETURN(const std::string bytes,
                              view.cold->FileBytes());
        ESDB_RETURN_IF_ERROR(WriteFileAtomic(path, bytes));
      }
      segment_ids.push_back(
          SegmentEntry{view.id(), num_deleted, true,
                       PackOverlayBits(view.tombstones.get(),
                                       view.num_docs())});
      continue;
    }
    segment_ids.push_back(SegmentEntry{view.id(), num_deleted, false, ""});
    const std::string name = SegmentFileName(view.id(), num_deleted);
    live_files.push_back(name);
    const fs::path path = fs::path(dir) / name;
    if (fs::exists(path)) continue;  // immutable content, already saved
    // Crash point: the process dies while writing a segment file
    // mid-checkpoint. The committed manifest is untouched, so the
    // previous checkpoint remains the recoverable state.
    if (ESDB_FAIL_POINT(failsite::kSaveSegment)) {
      return Status::Internal("failpoint: persist/save-segment");
    }
    ESDB_RETURN_IF_ERROR(
        WriteFileAtomic(path, view->Encode(view.tombstones.get())));
  }

  // Translog: length-prefixed encoded entries; the sequence range
  // (and thus the file name) lives in the manifest. Always rewritten —
  // identical ranges have identical content, so a rewrite is a no-op
  // rename over the same bytes, and it heals a previously torn file.
  const Translog& translog = store.translog();
  const uint64_t log_begin = translog.begin_seq();
  const uint64_t log_end = translog.end_seq();
  {
    std::string log;
    for (uint64_t seq = log_begin; seq < log_end; ++seq) {
      auto op = translog.Get(seq);
      if (!op.ok()) return op.status();
      PutLengthPrefixed(&log, op->Encode());
    }
    // Crash point: the process dies while writing the translog file.
    if (ESDB_FAIL_POINT(failsite::kSaveTranslog)) {
      return Status::Internal("failpoint: persist/save-translog");
    }
    const fs::path log_path =
        fs::path(dir) / TranslogFileName(log_begin, log_end);
    live_files.push_back(TranslogFileName(log_begin, log_end));
    // Torn tail: the write "succeeds" but the device tore the final
    // sector — the file ends mid-record (arg = bytes torn off the
    // end, default 3). Unlike the crash points above this one
    // REPORTS SUCCESS, modeling an fsync lie; recovery must truncate
    // the unparseable tail and warn rather than crash or load
    // garbage.
    if (!log.empty() && ESDB_FAIL_POINT(failsite::kTornTail)) {
      uint64_t torn = FailPoints::Arg(failsite::kTornTail);
      if (torn == 0) torn = 3;
      if (torn >= log.size()) torn = log.size() - 1;
      ESDB_RETURN_IF_ERROR(WriteFileAtomic(
          log_path, std::string_view(log).substr(0, log.size() - torn)));
    } else {
      ESDB_RETURN_IF_ERROR(WriteFileAtomic(log_path, log));
    }
  }

  // Manifest last — its rename is the checkpoint's commit point.
  std::string manifest(kManifestMagic);
  PutVarint64(&manifest, store.next_segment_id());
  PutVarint64(&manifest, store.refreshed_seq());
  PutVarint64(&manifest, log_begin);
  PutVarint64(&manifest, log_end);
  PutVarint64(&manifest, segment_ids.size());
  for (const SegmentEntry& entry : segment_ids) {
    PutVarint64(&manifest, entry.id);
    PutVarint64(&manifest, entry.num_deleted);
    PutVarint64(&manifest, entry.cold ? 1 : 0);
    if (entry.cold) PutLengthPrefixed(&manifest, entry.overlay_bits);
  }
  // Crash point: the process dies after data files but before the
  // manifest commit. Recovery sees the previous checkpoint.
  if (ESDB_FAIL_POINT(failsite::kSaveManifest)) {
    return Status::Internal("failpoint: persist/save-manifest");
  }
  ESDB_RETURN_IF_ERROR(WriteFileAtomic(fs::path(dir) / "MANIFEST", manifest));
  CollectGarbage(dir, live_files);
  return Status::OK();
}

Result<std::unique_ptr<ShardStore>> OpenShard(const IndexSpec* spec,
                                              ShardStore::Options options,
                                              const std::string& dir,
                                              RecoveryReport* report) {
  RecoveryReport local;
  ESDB_ASSIGN_OR_RETURN(std::string manifest,
                        ReadFile(fs::path(dir) / "MANIFEST"));
  const size_t magic_len = sizeof(kManifestMagic) - 1;
  if (manifest.compare(0, magic_len, kManifestMagic) != 0) {
    return Status::Corruption("bad shard manifest magic");
  }
  size_t pos = magic_len;
  uint64_t next_segment_id = 0, refreshed_seq = 0, num_segments = 0;
  uint64_t log_begin = 0, log_end = 0;
  if (!GetVarint64(manifest, &pos, &next_segment_id) ||
      !GetVarint64(manifest, &pos, &refreshed_seq) ||
      !GetVarint64(manifest, &pos, &log_begin) ||
      !GetVarint64(manifest, &pos, &log_end) ||
      !GetVarint64(manifest, &pos, &num_segments)) {
    return Status::Corruption("truncated shard manifest");
  }
  if (log_end < log_begin) {
    return Status::Corruption("shard manifest translog range inverted");
  }

  auto store = std::make_unique<ShardStore>(spec, options);
  for (uint64_t i = 0; i < num_segments; ++i) {
    uint64_t id = 0, num_deleted = 0, tier = 0;
    if (!GetVarint64(manifest, &pos, &id) ||
        !GetVarint64(manifest, &pos, &num_deleted) ||
        !GetVarint64(manifest, &pos, &tier)) {
      return Status::Corruption("truncated shard manifest segment list");
    }
    if (tier != 0) {
      // Cold entry: reopen the compressed file lazily (header only —
      // a recovered long-tail tenant costs no inflation until its
      // first query) and rehydrate the overlay from the manifest.
      std::string_view bits;
      if (!GetLengthPrefixed(manifest, &pos, &bits)) {
        return Status::Corruption("truncated shard manifest cold overlay");
      }
      ESDB_ASSIGN_OR_RETURN(
          std::shared_ptr<const ColdSegment> cold,
          ColdSegment::Open((fs::path(dir) / ColdFileName(id)).string(),
                            options.tier.cache));
      std::vector<bool> overlay(bits.size() * 8, false);
      for (size_t b = 0; b < overlay.size(); ++b) {
        if (uint8_t(bits[b / 8]) & (1u << (b % 8))) overlay[b] = true;
      }
      store->InstallColdSegment(std::move(cold),
                                Tombstones::FromBits(std::move(overlay)));
      ++local.segments_loaded;
      continue;
    }
    // Fault point: a segment file read error (bad sector, missing
    // file). Recovery fails cleanly — the caller retries or falls
    // back to a replica; nothing partial is returned.
    if (ESDB_FAIL_POINT(failsite::kLoadSegment)) {
      return Status::Unavailable("failpoint: persist/load-segment");
    }
    ESDB_ASSIGN_OR_RETURN(
        std::string bytes,
        ReadFile(fs::path(dir) / SegmentFileName(id, num_deleted)));
    std::shared_ptr<const Tombstones> tombstones;
    auto segment = Segment::Decode(bytes, &tombstones);
    if (!segment.ok()) return segment.status();
    store->InstallSegment(std::move(*segment), std::move(tombstones));
    ++local.segments_loaded;
  }
  if (pos != manifest.size()) {
    return Status::Corruption("shard manifest: trailing bytes");
  }
  store->set_next_segment_id(next_segment_id);

  // Replay the translog tail not yet covered by segments: ops with
  // sequence numbers >= refreshed_seq land back in the write buffer.
  // A file that ends mid-record (torn tail — the crash interrupted
  // the final write) is truncated at the last whole record, with the
  // loss accounted in the report; everything before the tear replays
  // normally. A torn record can never be mistaken for a whole one:
  // truncation only ever removes trailing bytes, so the parse fails
  // cleanly at the tear instead of decoding garbage.
  {
    ESDB_ASSIGN_OR_RETURN(
        std::string log,
        ReadFile(fs::path(dir) / TranslogFileName(log_begin, log_end)));
    size_t log_pos = 0;
    const uint64_t count = log_end - log_begin;
    for (uint64_t i = 0; i < count; ++i) {
      std::string_view entry;
      if (!GetLengthPrefixed(log, &log_pos, &entry)) {
        local.torn_tail = true;
        local.ops_discarded = count - i;
        std::fprintf(stderr,
                     "[esdb] warning: torn translog tail in %s: %llu of "
                     "%llu op(s) truncated at the tear\n",
                     dir.c_str(),
                     static_cast<unsigned long long>(local.ops_discarded),
                     static_cast<unsigned long long>(count));
        break;
      }
      auto op = WriteOp::Decode(entry);
      if (!op.ok()) {
        // A complete-looking record that fails to decode is real
        // corruption mid-file, not a torn tail.
        return op.status();
      }
      const uint64_t seq = log_begin + i;
      if (seq < refreshed_seq) {
        ++local.ops_skipped;  // already inside segments
        continue;
      }
      auto applied = store->Apply(*op);
      if (!applied.ok()) return applied.status();
      ++local.ops_replayed;
    }
  }
  if (report != nullptr) *report = local;
  return store;
}

}  // namespace esdb
