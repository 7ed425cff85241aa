#ifndef ESDB_STORAGE_COLD_SEGMENT_H_
#define ESDB_STORAGE_COLD_SEGMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/block_cache.h"
#include "storage/posting.h"
#include "storage/segment.h"

namespace esdb {

// The cold half of the tiered segment lifecycle: a segment whose
// payload is block-compressed (storage/codec.h) and either spilled to
// a versioned on-disk file or parked compressed in RAM. Only metadata
// and the block directory stay resident — for a long-tail tenant that
// is a few hundred bytes instead of the full index.
//
// File format ("ESDBCOLD1", all varints):
//
//   magic
//   varint id, num_docs, docs_per_block
//   varint index_raw_bytes
//   varint #index-blocks;  per block: varint raw_len, varint comp_len
//   varint #doc-blocks;    per block: varint raw_len, varint comp_len
//   payload: every index block then every doc block, concatenated
//            compressed bytes (offsets derive from the directory)
//
// The two payload sections split the segment the way queries consume
// it:
//  * INDEX part — Segment::EncodeIndexPart() (inverted indexes,
//    composites, doc values, record ids) cut into ~64 KiB compressed
//    blocks. A cold shard's first query decompresses and decodes it
//    ONCE into an index-only Segment cached as a single block-cache
//    entry (PinIndex); every executor path — postings, composite
//    scans, the vectorized batch engine over DocValues — then runs
//    unchanged against it.
//  * STORED-DOC row blocks — 256 docs per block, each block the
//    concatenated length-prefixed serialized documents, compressed
//    independently. ReadDocument() inflates only the block holding
//    the requested doc (late materialization): fetching the top-k of
//    a cold query never re-inflates the whole stored section.
//
// Immutability: a cold segment's bytes never change after FromSegment
// (deletes land in the manifest's tombstone overlay, not the file), so
// cache entries need no invalidation and the file name can be
// versioned by segment id alone.
//
// Thread safety: the object is immutable after construction; payload
// reads are either RAM copies or independent pread-style file opens.
// All methods are const and safe to call concurrently.
class ColdSegment {
 public:
  // Demotes `segment` (which must still hold its stored docs — i.e. a
  // freshly built merge output, not a pinned index part). When
  // `spill_path` is non-empty the full cold file is written there
  // atomically and the payload dropped from RAM ("spilled"); when
  // empty the compressed payload stays in RAM (no-filesystem mode).
  // `cache` may be null (reads then decompress uncached).
  // Fail points: failsite::kColdCompress before compression,
  // failsite::kColdWrite before the spill write.
  [[nodiscard]] static Result<std::shared_ptr<const ColdSegment>> FromSegment(
      const Segment& segment, const std::string& spill_path,
      std::shared_ptr<BlockCache> cache);

  // Opens an existing cold file (checkpoint recovery). Parses header
  // and directory only; the payload stays on disk. The file must
  // outlive the handle — the handle does NOT take ownership of it
  // (persistence GC manages checkpoint files by manifest liveness).
  // Fail point: failsite::kColdLoad.
  [[nodiscard]] static Result<std::shared_ptr<const ColdSegment>> Open(
      const std::string& path, std::shared_ptr<BlockCache> cache);

  ~ColdSegment();
  ColdSegment(const ColdSegment&) = delete;
  ColdSegment& operator=(const ColdSegment&) = delete;

  uint64_t id() const { return id_; }
  size_t num_docs() const { return num_docs_; }

  // Uncompressed index+stored bytes — the logical size the merge
  // policy and balancer reason about.
  size_t total_raw_bytes() const { return total_raw_bytes_; }
  // Compressed payload bytes (disk or RAM, excluding header).
  size_t compressed_bytes() const { return compressed_bytes_; }
  // RAM held by this handle: metadata + directory, plus the payload
  // when not spilled. Cache residency is the cache's to account.
  size_t ResidentBytes() const;
  // Bytes parked on disk (0 when the payload lives in RAM).
  size_t DiskBytes() const;

  bool spilled() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

  // The decoded index-only Segment, through the cache (block 0; charge
  // = decoded size). First touch decompresses + decodes; subsequent
  // pins are a map hit. Fail point: failsite::kColdLoad.
  [[nodiscard]] Result<std::shared_ptr<const Segment>> PinIndex() const;

  // One stored document, decompressing only its row block (cached as
  // block 1 + block_index). Fail point: failsite::kColdLoad.
  [[nodiscard]] Result<Document> ReadDocument(DocId doc) const;

  // Appends the stored bytes of every doc that `keep` does not drop,
  // in doc order (the merge's document copy). Each row block holding
  // such a doc is pinned once, through the cache like ReadDocument;
  // blocks holding none are not read. Fail point: failsite::kColdLoad.
  [[nodiscard]] Status AppendStoredDocs(const DocIdMap& keep,
                                        std::vector<std::string>* out) const;

  // Fully inflates the segment — index part AND all stored docs — for
  // replication and checkpoints (SegmentView::EncodeFull). Bypasses the
  // cache (the result is a one-shot owning Segment, not shared state).
  [[nodiscard]] Result<std::unique_ptr<Segment>> LoadFull() const;

  // The complete cold-file image (header + payload), for
  // checkpointing a RAM-resident cold segment or copying a spilled
  // one into a checkpoint directory.
  [[nodiscard]] Result<std::string> FileBytes() const;

 private:
  // Per-block directory entry; payload offsets derive from the
  // directory (cumulative), absolute within the file.
  struct BlockRef {
    uint64_t offset = 0;  // file-absolute payload offset
    uint32_t raw_len = 0;
    uint32_t comp_len = 0;
  };

  ColdSegment() = default;

  [[nodiscard]] static Result<std::shared_ptr<ColdSegment>> Parse(std::string header_view,
                                                    const std::string& path);

  // Raw payload bytes [offset, offset+len) from RAM or the spill file.
  [[nodiscard]] Result<std::string> ReadPayload(uint64_t offset, size_t len) const;
  [[nodiscard]] Result<std::string> InflateIndexRaw() const;
  [[nodiscard]] Result<std::shared_ptr<const std::string>> PinDocBlock(
      uint32_t block_index) const;

  uint64_t id_ = 0;
  uint32_t num_docs_ = 0;
  uint32_t docs_per_block_ = 0;
  uint64_t payload_base_ = 0;  // file offset where payload starts
  std::vector<BlockRef> index_blocks_;
  std::vector<BlockRef> doc_blocks_;
  size_t total_raw_bytes_ = 0;   // uncompressed index + stored bytes
  size_t compressed_bytes_ = 0;  // sum of comp_len
  std::string header_;           // serialized header+directory bytes
  std::string payload_;          // RAM mode; empty when spilled
  std::string path_;             // spilled mode; empty in RAM mode
  bool owns_file_ = false;       // FromSegment spills are deleted in ~
  std::shared_ptr<BlockCache> cache_;  // may be null
  uint64_t cache_owner_ = 0;
};

}  // namespace esdb

#endif  // ESDB_STORAGE_COLD_SEGMENT_H_
