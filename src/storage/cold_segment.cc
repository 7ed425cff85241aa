#include "storage/cold_segment.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "common/failpoint.h"
#include "common/varint.h"
#include "storage/codec.h"

namespace esdb {

namespace {

namespace fs = std::filesystem;

constexpr char kColdMagic[] = "ESDBCOLD1";
constexpr size_t kColdMagicLen = sizeof(kColdMagic) - 1;

// Index part is cut into ~64 KiB (uncompressed) blocks so the cache
// granularity stays small relative to capacity; stored docs into
// 256-doc row blocks so a point read inflates a bounded byte count.
constexpr size_t kIndexBlockBytes = 64u << 10;
constexpr size_t kDocsPerBlock = 256;

// Cache block numbering for one owner: block 0 is the decoded index
// Segment, blocks 1.. are decompressed stored-doc row blocks.
constexpr uint32_t kIndexCacheBlock = 0;
constexpr uint32_t kDocCacheBlockBase = 1;

// Same atomic tmp+rename discipline as persistence.cc: a crash leaves
// either no file or a complete one, never a partial cold file.
Status WriteColdFileAtomic(const fs::path& path, std::string_view data) {
  const fs::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Internal("cold: cannot open for write: " + tmp.string());
    }
    out.write(data.data(), std::streamsize(data.size()));
    if (!out) {
      return Status::Internal("cold: write failed: " + tmp.string());
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    return Status::Internal("cold: rename failed: " + path.string());
  }
  return Status::OK();
}

}  // namespace

Result<std::shared_ptr<const ColdSegment>> ColdSegment::FromSegment(
    const Segment& segment, const std::string& spill_path,
    std::shared_ptr<BlockCache> cache) {
  if (!segment.has_stored_docs()) {
    return Status::FailedPrecondition(
        "cold: cannot demote an index-only segment");
  }
  // Fault point: compression fails mid-demotion (OOM, codec error).
  // The caller keeps the hot segment; nothing is lost.
  if (ESDB_FAIL_POINT(failsite::kColdCompress)) {
    return Status::Internal("failpoint: tier/cold-compress");
  }

  auto cold = std::shared_ptr<ColdSegment>(new ColdSegment());
  cold->id_ = segment.id();
  cold->num_docs_ = uint32_t(segment.num_docs());
  cold->docs_per_block_ = uint32_t(kDocsPerBlock);

  // Index part: EncodeIndexPart cut into fixed raw-size blocks.
  std::string payload;
  const std::string index_raw = segment.EncodeIndexPart();
  for (size_t off = 0; off < index_raw.size() || off == 0;
       off += kIndexBlockBytes) {
    const size_t raw_len = std::min(kIndexBlockBytes, index_raw.size() - off);
    const std::string comp =
        CompressBlock(std::string_view(index_raw).substr(off, raw_len));
    cold->index_blocks_.push_back(
        BlockRef{0, uint32_t(raw_len), uint32_t(comp.size())});
    payload += comp;
    if (index_raw.empty()) break;
  }

  // Stored docs: row blocks of length-prefixed serialized documents.
  const std::vector<std::string>& stored = segment.stored_docs();
  for (size_t begin = 0; begin < stored.size(); begin += kDocsPerBlock) {
    const size_t end = std::min(begin + kDocsPerBlock, stored.size());
    std::string raw;
    for (size_t i = begin; i < end; ++i) PutLengthPrefixed(&raw, stored[i]);
    const std::string comp = CompressBlock(raw);
    cold->doc_blocks_.push_back(
        BlockRef{0, uint32_t(raw.size()), uint32_t(comp.size())});
    payload += comp;
  }

  // Header + directory; then fix up the file-absolute block offsets.
  std::string header(kColdMagic, kColdMagicLen);
  PutVarint64(&header, cold->id_);
  PutVarint64(&header, cold->num_docs_);
  PutVarint64(&header, cold->docs_per_block_);
  PutVarint64(&header, index_raw.size());
  PutVarint64(&header, cold->index_blocks_.size());
  for (const BlockRef& b : cold->index_blocks_) {
    PutVarint64(&header, b.raw_len);
    PutVarint64(&header, b.comp_len);
  }
  PutVarint64(&header, cold->doc_blocks_.size());
  for (const BlockRef& b : cold->doc_blocks_) {
    PutVarint64(&header, b.raw_len);
    PutVarint64(&header, b.comp_len);
  }
  cold->payload_base_ = header.size();
  uint64_t offset = header.size();
  for (BlockRef& b : cold->index_blocks_) {
    b.offset = offset;
    offset += b.comp_len;
  }
  for (BlockRef& b : cold->doc_blocks_) {
    b.offset = offset;
    offset += b.comp_len;
  }
  cold->header_ = std::move(header);
  cold->total_raw_bytes_ = segment.SizeBytes();
  cold->compressed_bytes_ = payload.size();
  cold->cache_ = std::move(cache);
  cold->cache_owner_ = BlockCache::NewOwnerId();

  if (spill_path.empty()) {
    cold->payload_ = std::move(payload);
    return std::shared_ptr<const ColdSegment>(std::move(cold));
  }

  // Fault point: the spill write fails (disk full, I/O error). The
  // demotion aborts; the segment stays hot.
  if (ESDB_FAIL_POINT(failsite::kColdWrite)) {
    return Status::Internal("failpoint: tier/cold-write");
  }
  ESDB_RETURN_IF_ERROR(
      WriteColdFileAtomic(fs::path(spill_path), cold->header_ + payload));
  cold->path_ = spill_path;
  cold->owns_file_ = true;
  return std::shared_ptr<const ColdSegment>(std::move(cold));
}

Result<std::shared_ptr<const ColdSegment>> ColdSegment::Open(
    const std::string& path, std::shared_ptr<BlockCache> cache) {
  // Fault point: a cold-file read error during recovery or first
  // access. Open fails cleanly; the caller retries or falls back.
  if (ESDB_FAIL_POINT(failsite::kColdLoad)) {
    return Status::Unavailable("failpoint: tier/cold-load");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::Unavailable("cold: cannot open " + path);
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());

  if (bytes.size() < kColdMagicLen ||
      bytes.compare(0, kColdMagicLen, kColdMagic) != 0) {
    return Status::Corruption("cold: bad magic in " + path);
  }
  auto cold = std::shared_ptr<ColdSegment>(new ColdSegment());
  std::string_view data(bytes);
  size_t pos = kColdMagicLen;
  uint64_t id = 0, num_docs = 0, docs_per_block = 0, index_raw_bytes = 0;
  uint64_t n_index = 0, n_docs_blocks = 0;
  if (!GetVarint64(data, &pos, &id) || !GetVarint64(data, &pos, &num_docs) ||
      !GetVarint64(data, &pos, &docs_per_block) ||
      !GetVarint64(data, &pos, &index_raw_bytes) ||
      !GetVarint64(data, &pos, &n_index)) {
    return Status::Corruption("cold: truncated header in " + path);
  }
  if (docs_per_block == 0 || n_index > data.size() ||
      num_docs > uint64_t(1) << 32) {
    return Status::Corruption("cold: implausible header in " + path);
  }
  cold->id_ = id;
  cold->num_docs_ = uint32_t(num_docs);
  cold->docs_per_block_ = uint32_t(docs_per_block);
  size_t total_raw = 0;
  for (uint64_t i = 0; i < n_index; ++i) {
    uint64_t raw_len = 0, comp_len = 0;
    if (!GetVarint64(data, &pos, &raw_len) ||
        !GetVarint64(data, &pos, &comp_len)) {
      return Status::Corruption("cold: truncated index directory in " + path);
    }
    cold->index_blocks_.push_back(
        BlockRef{0, uint32_t(raw_len), uint32_t(comp_len)});
    total_raw += raw_len;
  }
  if (!GetVarint64(data, &pos, &n_docs_blocks) ||
      n_docs_blocks > data.size()) {
    return Status::Corruption("cold: truncated doc directory in " + path);
  }
  for (uint64_t i = 0; i < n_docs_blocks; ++i) {
    uint64_t raw_len = 0, comp_len = 0;
    if (!GetVarint64(data, &pos, &raw_len) ||
        !GetVarint64(data, &pos, &comp_len)) {
      return Status::Corruption("cold: truncated doc directory in " + path);
    }
    cold->doc_blocks_.push_back(
        BlockRef{0, uint32_t(raw_len), uint32_t(comp_len)});
    total_raw += raw_len;
  }
  cold->header_ = bytes.substr(0, pos);
  cold->payload_base_ = pos;
  uint64_t offset = pos;
  size_t compressed = 0;
  for (BlockRef& b : cold->index_blocks_) {
    b.offset = offset;
    offset += b.comp_len;
    compressed += b.comp_len;
  }
  for (BlockRef& b : cold->doc_blocks_) {
    b.offset = offset;
    offset += b.comp_len;
    compressed += b.comp_len;
  }
  if (offset != bytes.size()) {
    return Status::Corruption("cold: payload size mismatch in " + path);
  }
  cold->total_raw_bytes_ = total_raw;
  cold->compressed_bytes_ = compressed;
  cold->path_ = path;
  cold->owns_file_ = false;  // checkpoint files belong to persistence GC
  cold->cache_ = std::move(cache);
  cold->cache_owner_ = BlockCache::NewOwnerId();
  return std::shared_ptr<const ColdSegment>(std::move(cold));
}

ColdSegment::~ColdSegment() {
  if (cache_ != nullptr && cache_owner_ != 0) {
    cache_->EraseOwner(cache_owner_);
  }
  if (owns_file_ && !path_.empty()) {
    std::error_code ec;
    fs::remove(path_, ec);  // best effort; spill dirs are scratch space
  }
}

size_t ColdSegment::ResidentBytes() const {
  return sizeof(*this) + header_.size() + payload_.size() +
         (index_blocks_.size() + doc_blocks_.size()) * sizeof(BlockRef) +
         path_.size();
}

size_t ColdSegment::DiskBytes() const {
  return spilled() ? header_.size() + compressed_bytes_ : 0;
}

Result<std::string> ColdSegment::ReadPayload(uint64_t offset,
                                             size_t len) const {
  // Fault point: a payload read error on the cold path (bad sector,
  // file vanished). The read fails cleanly and is retryable.
  if (ESDB_FAIL_POINT(failsite::kColdLoad)) {
    return Status::Unavailable("failpoint: tier/cold-load");
  }
  if (!payload_.empty()) {
    const uint64_t rel = offset - payload_base_;
    if (rel + len > payload_.size()) {
      return Status::Corruption("cold: payload read out of bounds");
    }
    return payload_.substr(rel, len);
  }
  std::ifstream in(path_, std::ios::binary);
  if (!in) {
    return Status::Unavailable("cold: cannot open " + path_);
  }
  in.seekg(std::streamoff(offset));
  std::string out(len, '\0');
  in.read(out.data(), std::streamsize(len));
  if (in.gcount() != std::streamsize(len)) {
    return Status::Corruption("cold: short payload read from " + path_);
  }
  return out;
}

Result<std::string> ColdSegment::InflateIndexRaw() const {
  std::string raw;
  for (const BlockRef& b : index_blocks_) {
    ESDB_ASSIGN_OR_RETURN(std::string comp, ReadPayload(b.offset, b.comp_len));
    ESDB_ASSIGN_OR_RETURN(std::string block, DecompressBlock(comp, b.raw_len));
    raw += block;
  }
  return raw;
}

Result<std::shared_ptr<const Segment>> ColdSegment::PinIndex() const {
  const auto load = [this]() -> Result<BlockCache::Block> {
    ESDB_ASSIGN_OR_RETURN(std::string raw, InflateIndexRaw());
    ESDB_ASSIGN_OR_RETURN(std::unique_ptr<Segment> seg,
                          Segment::DecodeIndexPart(raw));
    const size_t charge = seg->SizeBytes() + sizeof(Segment);
    return BlockCache::Block{
        std::shared_ptr<const void>(std::shared_ptr<const Segment>(
            std::move(seg))),
        charge};
  };
  if (cache_ == nullptr) {
    ESDB_ASSIGN_OR_RETURN(BlockCache::Block b, load());
    return std::static_pointer_cast<const Segment>(b.data);
  }
  return cache_->PinAs<Segment>(cache_owner_, kIndexCacheBlock, load);
}

Result<std::shared_ptr<const std::string>> ColdSegment::PinDocBlock(
    uint32_t block_index) const {
  const BlockRef& ref = doc_blocks_[block_index];
  const auto load = [this, &ref]() -> Result<BlockCache::Block> {
    ESDB_ASSIGN_OR_RETURN(std::string comp,
                          ReadPayload(ref.offset, ref.comp_len));
    ESDB_ASSIGN_OR_RETURN(std::string raw, DecompressBlock(comp, ref.raw_len));
    auto block = std::make_shared<const std::string>(std::move(raw));
    return BlockCache::Block{block, block->size()};
  };
  if (cache_ == nullptr) {
    ESDB_ASSIGN_OR_RETURN(BlockCache::Block b, load());
    return std::static_pointer_cast<const std::string>(b.data);
  }
  return cache_->PinAs<std::string>(cache_owner_,
                                    kDocCacheBlockBase + block_index, load);
}

Result<Document> ColdSegment::ReadDocument(DocId doc) const {
  if (doc >= num_docs_) {
    return Status::InvalidArgument("cold: doc id out of range");
  }
  const uint32_t block_index = doc / docs_per_block_;
  const uint32_t local = doc % docs_per_block_;
  ESDB_ASSIGN_OR_RETURN(std::shared_ptr<const std::string> block,
                        PinDocBlock(block_index));
  std::string_view data(*block);
  size_t pos = 0;
  std::string_view bytes;
  for (uint32_t i = 0; i <= local; ++i) {
    if (!GetLengthPrefixed(data, &pos, &bytes)) {
      return Status::Corruption("cold: truncated stored-doc block");
    }
  }
  return Document::Deserialize(bytes);
}

Status ColdSegment::AppendStoredDocs(const DocIdMap& keep,
                                     std::vector<std::string>* out) const {
  for (uint32_t block = 0; block < doc_blocks_.size(); ++block) {
    const DocId first = block * docs_per_block_;
    const DocId last = std::min<DocId>(first + docs_per_block_, num_docs_);
    bool any = false;
    for (DocId id = first; id < last && !any; ++id) {
      any = keep[id] != kDroppedDoc;
    }
    if (!any) continue;
    ESDB_ASSIGN_OR_RETURN(std::shared_ptr<const std::string> bytes,
                          PinDocBlock(block));
    std::string_view data(*bytes);
    size_t pos = 0;
    for (DocId id = first; id < last; ++id) {
      std::string_view doc;
      if (!GetLengthPrefixed(data, &pos, &doc)) {
        return Status::Corruption("cold: truncated stored-doc block");
      }
      if (keep[id] != kDroppedDoc) out->emplace_back(doc);
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<Segment>> ColdSegment::LoadFull() const {
  ESDB_ASSIGN_OR_RETURN(std::string raw, InflateIndexRaw());
  ESDB_ASSIGN_OR_RETURN(std::unique_ptr<Segment> seg,
                        Segment::DecodeIndexPart(raw));
  seg->stored_.reserve(num_docs_);
  for (const BlockRef& ref : doc_blocks_) {
    ESDB_ASSIGN_OR_RETURN(std::string comp,
                          ReadPayload(ref.offset, ref.comp_len));
    ESDB_ASSIGN_OR_RETURN(std::string block,
                          DecompressBlock(comp, ref.raw_len));
    std::string_view data(block);
    size_t pos = 0;
    std::string_view doc;
    while (pos < data.size()) {
      if (!GetLengthPrefixed(data, &pos, &doc)) {
        return Status::Corruption("cold: truncated stored-doc block");
      }
      seg->stored_.emplace_back(doc);
    }
  }
  if (seg->stored_.size() != num_docs_) {
    return Status::Corruption("cold: stored doc count mismatch");
  }
  seg->RecomputeSize();
  return seg;
}

Result<std::string> ColdSegment::FileBytes() const {
  if (!spilled()) return header_ + payload_;
  std::ifstream in(path_, std::ios::binary);
  if (!in) {
    return Status::Unavailable("cold: cannot open " + path_);
  }
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

}  // namespace esdb
