#ifndef DTDEVOLVE_XML_ARENA_H_
#define DTDEVOLVE_XML_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "xml/document.h"

namespace dtdevolve::xml {

/// Bump-pointer allocator backing one `ArenaDocument`. Everything the
/// streaming parser produces — element nodes, attribute and child spans,
/// every string (tags, attribute names/values, text runs) — lives in the
/// arena's chunks, so a parsed document is destroyed in O(chunks) frees
/// instead of one `delete` per node, and tree construction never touches
/// the global allocator per node.
///
/// Lifetime rule: views handed out by an `ArenaElement` point into the
/// arena. Chunks are heap blocks owned by the arena, so moving an
/// `ArenaDocument` (which moves the arena) never invalidates them; they
/// die with the document. Nothing points back into the parsed input text,
/// which the caller may discard as soon as parsing returns.
class Arena {
 public:
  Arena() = default;
  /// Returns default-size chunks to a bounded thread-local pool, so a
  /// parse-per-document loop reuses warm chunks instead of paying a heap
  /// round-trip (and the attendant page faults) per document.
  ~Arena();

  Arena(Arena&&) = default;
  Arena& operator=(Arena&&) = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Uninitialized storage for `count` objects of `T`, properly aligned.
  template <typename T>
  T* AllocateArray(size_t count) {
    return static_cast<T*>(Allocate(count * sizeof(T), alignof(T)));
  }

  /// Copies `text` into the arena; the returned view is stable for the
  /// arena's lifetime. Empty input yields an empty view without
  /// allocating.
  std::string_view CopyString(std::string_view text);

  /// Bytes handed out to callers (the document's live footprint).
  size_t bytes_allocated() const { return bytes_allocated_; }
  /// Bytes reserved from the heap (chunk footprint, ≥ bytes_allocated).
  size_t bytes_reserved() const { return bytes_reserved_; }

  void* Allocate(size_t bytes, size_t align);

 private:
  static constexpr size_t kDefaultChunkBytes = 32 * 1024;

  struct Chunk {
    std::unique_ptr<char[]> data;
    size_t size = 0;
  };

  void NewChunk(size_t min_bytes);

  std::vector<Chunk> chunks_;
  char* cursor_ = nullptr;
  size_t remaining_ = 0;
  size_t bytes_allocated_ = 0;
  size_t bytes_reserved_ = 0;
};

struct ArenaElement;

/// An attribute as it appeared on a start tag (views into the arena).
struct ArenaAttribute {
  std::string_view name;
  std::string_view value;
};

/// One child slot of an element, in document order: an element, or —
/// when `element` is null — one non-blank text run. Consecutive
/// non-blank runs (e.g. split by a comment or a CDATA boundary) are
/// pre-merged into a single slot at parse time; blank runs are dropped,
/// exactly as the DOM parser drops them. Both are equivalence-preserving
/// for everything downstream reads (content symbols, concatenated text,
/// structural equality, fingerprints).
struct ArenaChild {
  const ArenaElement* element = nullptr;
  std::string_view text;

  bool is_element() const { return element != nullptr; }
};

/// An element of an arena tree: tag + interned id, attribute and child
/// spans (contiguous, arena-resident), and the per-subtree facts the
/// single streaming pass already knows — the 128-bit structural
/// fingerprint (bit-identical to `similarity::SubtreeFingerprints` over
/// the equivalent DOM tree), the subtree element count, and whether any
/// direct text child exists (what `Element::HasTextContent` re-scans for
/// on every call).
struct ArenaElement {
  std::string_view tag;
  /// Dense id in `util::GlobalSymbols()`; `util::SymbolTable::kNoSymbol`
  /// past the table's bound, with the same fall-back-to-string contract
  /// as `Element::tag_id`.
  int32_t tag_id = -1;

  const ArenaAttribute* attrs = nullptr;
  uint32_t attr_count = 0;
  const ArenaChild* children = nullptr;
  uint32_t child_count = 0;

  /// Structural subtree fingerprint (see xml/fingerprint.h).
  uint64_t fp_hi = 0;
  uint64_t fp_lo = 0;
  /// Elements in this subtree, including this one.
  uint32_t element_count = 1;
  /// True iff the element has a (non-blank) direct text child — known at
  /// parse time, no child scan needed.
  bool has_text = false;

  struct AttributeRange {
    const ArenaAttribute* begin_;
    const ArenaAttribute* end_;
    const ArenaAttribute* begin() const { return begin_; }
    const ArenaAttribute* end() const { return end_; }
    size_t size() const { return static_cast<size_t>(end_ - begin_); }
  };
  AttributeRange attributes() const { return {attrs, attrs + attr_count}; }

  struct ChildRange {
    const ArenaChild* begin_;
    const ArenaChild* end_;
    const ArenaChild* begin() const { return begin_; }
    const ArenaChild* end() const { return end_; }
    size_t size() const { return static_cast<size_t>(end_ - begin_); }
  };
  ChildRange child_nodes() const { return {children, children + child_count}; }

  /// Allocation-free iteration over direct child *elements*.
  class ChildElementIterator {
   public:
    ChildElementIterator(const ArenaChild* pos, const ArenaChild* end)
        : pos_(pos), end_(end) {
      SkipText();
    }
    const ArenaElement& operator*() const { return *pos_->element; }
    const ArenaElement* operator->() const { return pos_->element; }
    ChildElementIterator& operator++() {
      ++pos_;
      SkipText();
      return *this;
    }
    friend bool operator==(const ChildElementIterator& a,
                           const ChildElementIterator& b) {
      return a.pos_ == b.pos_;
    }

   private:
    void SkipText() {
      while (pos_ != end_ && !pos_->is_element()) ++pos_;
    }
    const ArenaChild* pos_;
    const ArenaChild* end_;
  };
  struct ChildElementRange {
    const ArenaChild* begin_;
    const ArenaChild* end_;
    ChildElementIterator begin() const { return {begin_, end_}; }
    ChildElementIterator end() const { return {end_, end_}; }
  };
  ChildElementRange child_elements() const {
    return {children, children + child_count};
  }
};

/// Uniform tag accessors for code templated over the element type
/// (`Element` or `ArenaElement`): the recorder's walk and the
/// similarity recursion read both trees through these.
inline std::string_view TagOf(const Element& element) { return element.tag(); }
inline std::string_view TagOf(const ArenaElement& element) {
  return element.tag;
}
inline int32_t TagIdOf(const Element& element) { return element.tag_id(); }
inline int32_t TagIdOf(const ArenaElement& element) { return element.tag_id; }

/// A document parsed by the streaming path: DOCTYPE info plus the root
/// element, all storage owned by the embedded arena. Move-only, like
/// `xml::Document`; moving never invalidates any view into the tree.
class ArenaDocument {
 public:
  ArenaDocument() = default;

  ArenaDocument(ArenaDocument&&) = default;
  ArenaDocument& operator=(ArenaDocument&&) = default;

  bool has_root() const { return root_ != nullptr; }
  const ArenaElement& root() const { return *root_; }

  std::string_view doctype_name() const { return doctype_name_; }
  std::string_view internal_subset() const { return internal_subset_; }

  const Arena& arena() const { return arena_; }

  /// Conversion shim for DOM-only consumers (repository, persistence,
  /// oracle, tests): materializes an equivalent `xml::Document`. Adjacent
  /// text runs arrive pre-merged, so the result can have fewer `Text`
  /// children than a direct DOM parse of the same input — every
  /// structural reader (content symbols, `TextContent`,
  /// `StructurallyEqual`, fingerprints) sees identical values.
  Document ToDocument() const;

 private:
  friend class ArenaDocumentBuilder;

  Arena arena_;
  const ArenaElement* root_ = nullptr;
  std::string_view doctype_name_;
  std::string_view internal_subset_;
};

}  // namespace dtdevolve::xml

#endif  // DTDEVOLVE_XML_ARENA_H_
