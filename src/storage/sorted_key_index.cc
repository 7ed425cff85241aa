#include "storage/sorted_key_index.h"

#include <algorithm>
#include <cassert>

#include "common/varint.h"

namespace esdb {

namespace {

// Column terminator; compares below any escaped content byte.
constexpr char kTerm0 = '\x00';
constexpr char kTerm1 = '\x01';
// A byte strictly greater than any terminator second-byte, used to
// form exclusive upper bounds after a complete column encoding.
constexpr char kAfter = '\xff';

size_t SharedPrefix(std::string_view a, std::string_view b) {
  const size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

}  // namespace

void AppendEncodedColumn(std::string* key, const Value& v) {
  const std::string raw = v.EncodeSortable();
  for (char c : raw) {
    if (c == '\x00') {
      key->push_back('\x00');
      key->push_back('\xff');
    } else {
      key->push_back(c);
    }
  }
  key->push_back(kTerm0);
  key->push_back(kTerm1);
}

std::string EncodeKey(const std::vector<Value>& columns) {
  std::string key;
  for (const Value& v : columns) AppendEncodedColumn(&key, v);
  return key;
}

SortedKeyIndex::SortedKeyIndex(std::vector<std::string> columns)
    : columns_(std::move(columns)) {}

void SortedKeyIndex::Add(std::string key, DocId id) {
  assert(!sealed_);
  entries_.push_back(Entry{std::move(key), id});
}

void SortedKeyIndex::Seal() {
  assert(!sealed_);
  std::sort(entries_.begin(), entries_.end());
  sealed_ = true;
}

SortedKeyIndex SortedKeyIndex::Merge(
    std::vector<std::string> columns,
    const std::vector<const SortedKeyIndex*>& inputs,
    const std::vector<DocIdMap>& maps) {
  SortedKeyIndex out(std::move(columns));
  for (size_t i = 0; i < inputs.size(); ++i) {
    assert(inputs[i]->sealed_);
    const size_t run = out.entries_.size();
    for (const Entry& e : inputs[i]->entries_) {
      if (maps[i][e.id] != kDroppedDoc) {
        out.entries_.push_back(Entry{e.key, maps[i][e.id]});
      }
    }
    std::inplace_merge(out.entries_.begin(), out.entries_.begin() + run,
                       out.entries_.end());
  }
  out.sealed_ = true;
  return out;
}

PostingList SortedKeyIndex::ScanRange(std::string_view lo,
                                      std::string_view hi) const {
  assert(sealed_);
  auto begin = std::lower_bound(
      entries_.begin(), entries_.end(), lo,
      [](const Entry& e, std::string_view bound) { return e.key < bound; });
  auto end = std::lower_bound(
      begin, entries_.end(), hi,
      [](const Entry& e, std::string_view bound) { return e.key < bound; });
  std::vector<DocId> ids;
  ids.reserve(size_t(end - begin));
  for (auto it = begin; it != end; ++it) ids.push_back(it->id);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return PostingList(std::move(ids));
}

PostingList SortedKeyIndex::ScanPrefix(std::string_view prefix) const {
  std::string hi(prefix);
  hi.push_back(kAfter);
  return ScanRange(prefix, hi);
}

size_t SortedKeyIndex::CountRange(std::string_view lo,
                                  std::string_view hi) const {
  assert(sealed_);
  auto begin = std::lower_bound(
      entries_.begin(), entries_.end(), lo,
      [](const Entry& e, std::string_view bound) { return e.key < bound; });
  auto end = std::lower_bound(
      begin, entries_.end(), hi,
      [](const Entry& e, std::string_view bound) { return e.key < bound; });
  return size_t(end - begin);
}

size_t SortedKeyIndex::VisitRange(
    std::string_view lo, std::string_view hi, bool reverse,
    const std::function<bool(std::string_view key, DocId id)>& fn) const {
  assert(sealed_);
  auto begin = std::lower_bound(
      entries_.begin(), entries_.end(), lo,
      [](const Entry& e, std::string_view bound) { return e.key < bound; });
  auto end = std::lower_bound(
      begin, entries_.end(), hi,
      [](const Entry& e, std::string_view bound) { return e.key < bound; });
  size_t visited = 0;
  if (!reverse) {
    for (auto it = begin; it != end; ++it) {
      ++visited;
      if (!fn(it->key, it->id)) break;
    }
  } else {
    for (auto it = end; it != begin;) {
      --it;
      ++visited;
      if (!fn(it->key, it->id)) break;
    }
  }
  return visited;
}

void SortedKeyIndex::EncodeTo(std::string* out) const {
  assert(sealed_);
  PutVarint64(out, columns_.size());
  for (const std::string& col : columns_) PutLengthPrefixed(out, col);
  PutVarint64(out, entries_.size());
  std::string_view prev;
  for (const Entry& e : entries_) {
    const size_t shared = SharedPrefix(prev, e.key);
    PutVarint64(out, shared);
    PutLengthPrefixed(out, std::string_view(e.key).substr(shared));
    PutVarint64(out, e.id);
    prev = e.key;
  }
}

Status SortedKeyIndex::DecodeFrom(std::string_view data, size_t* pos,
                                  SortedKeyIndex* out) {
  uint64_t ncols = 0;
  if (!GetVarint64(data, pos, &ncols)) {
    return Status::Corruption("sorted_key_index: truncated column count");
  }
  out->columns_.clear();
  for (uint64_t i = 0; i < ncols; ++i) {
    std::string_view col;
    if (!GetLengthPrefixed(data, pos, &col)) {
      return Status::Corruption("sorted_key_index: truncated column name");
    }
    out->columns_.emplace_back(col);
  }
  uint64_t n = 0;
  if (!GetVarint64(data, pos, &n)) {
    return Status::Corruption("sorted_key_index: truncated entry count");
  }
  // Each entry takes at least three bytes (shared, suffix len, id).
  if (n > (data.size() - *pos) / 3 + 1) {
    return Status::Corruption("sorted_key_index: implausible entry count");
  }
  out->entries_.clear();
  out->entries_.reserve(n);
  std::string prev;
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t shared = 0;
    std::string_view suffix;
    uint64_t id = 0;
    if (!GetVarint64(data, pos, &shared) ||
        !GetLengthPrefixed(data, pos, &suffix) ||
        !GetVarint64(data, pos, &id)) {
      return Status::Corruption("sorted_key_index: truncated entry");
    }
    if (shared > prev.size()) {
      return Status::Corruption("sorted_key_index: bad shared prefix");
    }
    std::string key = prev.substr(0, shared);
    key.append(suffix);
    prev = key;
    out->entries_.push_back(Entry{std::move(key), DocId(id)});
  }
  out->sealed_ = true;
  return Status::OK();
}

size_t SortedKeyIndex::ApproximateBytes() const {
  size_t bytes = 0;
  std::string_view prev;
  for (const Entry& e : entries_) {
    // Count the prefix-compressed footprint, matching the serialized
    // form (the paper's common-prefix optimization).
    bytes += e.key.size() - SharedPrefix(prev, e.key) + sizeof(DocId) + 2;
    prev = e.key;
  }
  return bytes;
}

KeyRange MakeKeyRange(const std::vector<Value>& equality_prefix,
                      const Value* range_lo, bool lo_inclusive,
                      const Value* range_hi, bool hi_inclusive) {
  const std::string prefix = EncodeKey(equality_prefix);
  KeyRange out;
  if (range_lo != nullptr) {
    out.lo = prefix;
    AppendEncodedColumn(&out.lo, *range_lo);
    if (!lo_inclusive) out.lo.push_back(kAfter);
  } else {
    out.lo = prefix;
  }
  if (range_hi != nullptr) {
    out.hi = prefix;
    AppendEncodedColumn(&out.hi, *range_hi);
    if (hi_inclusive) out.hi.push_back(kAfter);
  } else {
    out.hi = prefix;
    out.hi.push_back(kAfter);
  }
  return out;
}

size_t ColumnPrefixEnd(std::string_view key, size_t num_columns) {
  size_t pos = 0;
  for (size_t col = 0; col < num_columns; ++col) {
    while (pos < key.size()) {
      if (key[pos] != kTerm0) {
        ++pos;
        continue;
      }
      // 0x00 is either an escape (followed by 0xFF) or a terminator
      // (followed by 0x01); a well-formed key never ends on a bare
      // 0x00.
      if (pos + 1 < key.size() && key[pos + 1] == kTerm1) {
        pos += 2;
        break;
      }
      pos += 2;  // escaped content byte
    }
    if (pos >= key.size()) return key.size();
  }
  return pos;
}

}  // namespace esdb
