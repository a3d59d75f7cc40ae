// Refcounted arena buffers and scatter-gather payloads: the zero-copy data
// path under net::Frame and middleware::Transport.
//
// The middleware hot loop used to copy every payload at least four times
// (writer vector -> wire message -> per-fragment frame rebuild -> reassembly
// concatenation, plus a full duplicate for reliable retransmission). This
// header replaces all of those with views:
//
//  * Block      — one refcounted byte buffer. Either carved from a
//                 BufferArena (chunked slab, recycled through a free list,
//                 zero heap traffic in steady state) or standalone
//                 (adopting a std::vector that application code hands in).
//  * BufferRef  — intrusive refcount handle to a Block.
//  * BufferSlice— a [offset, offset+size) view into a Block.
//  * Payload    — an ordered chain of slices with a small inline array
//                 (a fragment is header-slice + body-view; a reassembled
//                 message is the ordered chain of fragment bodies). Presents
//                 enough of the std::vector API that existing frame-poking
//                 code (tests, fault hooks, babbling-idiot injectors)
//                 compiles unchanged.
//
// Mutation is copy-on-write: fault-injection hooks flip bits on frames in
// flight, but fragments *share* the sender's message buffer (reliable mode
// pins it for retransmission), so in-place writes to shared bytes would
// corrupt the retry copy. A mutating access on a shared Payload first
// linearizes it into a private block — exactly the semantics the old
// copy-everything path had, paid only when something actually mutates.
//
// Threading: refcounts and free lists are deliberately NOT atomic. A
// Simulator and everything attached to it (media, ECUs, transports) is
// single-threaded by design; sim::ScenarioSweep gives every scenario its own
// Simulator and arenas, so buffers never cross threads. The TSan CI job runs
// the middleware suite under ScenarioSweep to enforce this.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <new>
#include <vector>

#include "obs/fnv.hpp"

namespace dynaplat::net {

class BufferArena;

namespace detail {

/// Shared arena state, detached from the BufferArena handle so blocks that
/// are still referenced (frames queued in a medium, pinned retransmission
/// buffers) stay valid even after their Transport — and its arena — died.
/// Freed when the arena handle is gone AND the last outstanding block
/// released.
struct ArenaState {
  struct Chunk;
  Chunk* free_head = nullptr;   // recycled chunks, intrusively linked
  std::size_t outstanding = 0;  // live blocks carved from this arena
  bool alive = true;            // arena handle still exists
  // Stats (bench counters for the zero-alloc acceptance check).
  std::uint64_t chunks_allocated = 0;  // heap allocations ever made
  std::uint64_t chunks_reused = 0;     // free-list hits
  std::size_t chunk_capacity = 0;
};

}  // namespace detail

/// One refcounted byte buffer. Never instantiated directly — created via
/// BufferArena::alloc() or BufferRef::adopt_vector()/copy_bytes().
class Block {
 public:
  std::uint8_t* data() { return data_; }
  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  bool unique() const { return refcount_ == 1; }

  /// The adopted vector, when this block wraps one (null for arena blocks).
  /// Lets callers that need a `const std::vector&` view (e.g. the security
  /// tagger API) borrow the bytes without a copy.
  const std::vector<std::uint8_t>* vec() const { return vector_backed_ ? &storage_ : nullptr; }

  /// Grows the valid-byte count (writer support; bytes must already fit).
  void set_size(std::size_t n) {
    assert(n <= capacity_);
    size_ = n;
  }

 private:
  friend class BufferRef;
  friend class BufferArena;
  friend struct detail::ArenaState::Chunk;  // embeds a Block per chunk

  Block() = default;
  ~Block() = default;

  void retain() { ++refcount_; }
  void release();

  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  std::uint32_t refcount_ = 0;
  bool vector_backed_ = false;
  detail::ArenaState* arena_ = nullptr;  // null => standalone heap block
  void* chunk_ = nullptr;                // owning ArenaState::Chunk, if any
  std::vector<std::uint8_t> storage_;    // backing store for standalone blocks
};

/// Intrusive refcount handle to a Block.
class BufferRef {
 public:
  BufferRef() = default;
  explicit BufferRef(Block* block) : block_(block) {
    if (block_ != nullptr) block_->retain();
  }
  BufferRef(const BufferRef& other) : block_(other.block_) {
    if (block_ != nullptr) block_->retain();
  }
  BufferRef(BufferRef&& other) noexcept : block_(other.block_) {
    other.block_ = nullptr;
  }
  BufferRef& operator=(const BufferRef& other) {
    if (this == &other) return *this;
    if (other.block_ != nullptr) other.block_->retain();
    if (block_ != nullptr) block_->release();
    block_ = other.block_;
    return *this;
  }
  BufferRef& operator=(BufferRef&& other) noexcept {
    if (this == &other) return *this;
    if (block_ != nullptr) block_->release();
    block_ = other.block_;
    other.block_ = nullptr;
    return *this;
  }
  ~BufferRef() {
    if (block_ != nullptr) block_->release();
  }

  Block* get() const { return block_; }
  Block* operator->() const { return block_; }
  explicit operator bool() const { return block_ != nullptr; }
  void reset() {
    if (block_ != nullptr) block_->release();
    block_ = nullptr;
  }

  /// Wraps a vector in a standalone refcounted block without copying.
  /// The canonical way application payloads (publish/stream/RPC bodies)
  /// enter the zero-copy path.
  static BufferRef adopt_vector(std::vector<std::uint8_t> bytes);

  /// Standalone block holding a copy of `[data, data+size)` (legacy
  /// vector-API compatibility: Payload::assign and friends).
  static BufferRef copy_bytes(const std::uint8_t* data, std::size_t size);

 private:
  Block* block_ = nullptr;
};

/// A contiguous view into a refcounted block.
struct BufferSlice {
  BufferRef buf;
  std::uint32_t offset = 0;
  std::uint32_t size = 0;

  const std::uint8_t* data() const { return buf->data() + offset; }
};

/// Chunked slab allocator with a free list. alloc() hands out refcounted
/// blocks; releasing the last reference recycles the chunk, so steady-state
/// traffic performs no heap allocation. Two size classes keep 6-byte
/// fragment headers from pinning 4-KiB chunks.
class BufferArena {
 public:
  static constexpr std::size_t kSmallCapacity = 64;
  static constexpr std::size_t kLargeCapacity = 4096;

  BufferArena();
  ~BufferArena();
  BufferArena(const BufferArena&) = delete;
  BufferArena& operator=(const BufferArena&) = delete;

  /// A block with size() == `size`. Arena-backed (recycled) when the size
  /// fits a class; oversize requests fall back to a standalone heap block.
  BufferRef alloc(std::size_t size);

  /// Heap chunk allocations ever made (small + large + oversize fallbacks).
  /// Flat across a steady-state workload == the zero-allocation property.
  std::uint64_t chunks_allocated() const {
    return small_->chunks_allocated + large_->chunks_allocated +
           oversize_allocs_;
  }
  std::uint64_t chunks_reused() const {
    return small_->chunks_reused + large_->chunks_reused;
  }
  std::size_t outstanding() const {
    return small_->outstanding + large_->outstanding;
  }

 private:
  BufferRef alloc_from(detail::ArenaState* state, std::size_t size);

  detail::ArenaState* small_;
  detail::ArenaState* large_;
  std::uint64_t oversize_allocs_ = 0;
};

/// Scatter-gather payload: an ordered chain of buffer slices. Up to
/// kInlineSlices live inline (covers every fragment shape: header slice +
/// body view + CRC slice + one chunk-boundary split); longer chains —
/// reassembled multi-fragment messages — spill to a heap vector.
///
/// The std::vector-compatible subset (size/empty/operator[]/assign/
/// initializer-list assignment/implicit vector conversion) keeps existing
/// frame-level code source-compatible. Reads are zero-copy; the first
/// mutating access on shared bytes linearizes into a private block
/// (copy-on-write), so corrupting one in-flight fragment can never reach
/// the sender's pinned retransmission buffer or a broadcast sibling.
class Payload {
 public:
  static constexpr std::size_t kInlineSlices = 4;

  Payload() = default;
  Payload(std::initializer_list<std::uint8_t> bytes) { assign_bytes(bytes.begin(), bytes.size()); }
  /*implicit*/ Payload(std::vector<std::uint8_t> bytes) {  // NOLINT
    adopt(std::move(bytes));
  }
  Payload& operator=(std::initializer_list<std::uint8_t> bytes) {
    clear();
    assign_bytes(bytes.begin(), bytes.size());
    return *this;
  }

  Payload(const Payload&);
  // Moves relocate only the *active* slices (placement-new storage, nothing
  // default-constructed): a one-slice frame payload moves as one pointer and
  // two integers. This is the hot operation of the data path — a message
  // crosses several Frame/Payload moves between publish and delivery.
  Payload(Payload&& other) noexcept
      : spill_(std::move(other.spill_)),
        slice_count_(other.slice_count_),
        size_(other.size_) {
    if (spill_ == nullptr) {
      for (std::uint32_t i = 0; i < slice_count_; ++i) {
        BufferSlice* src = other.slice_at(i);
        ::new (raw_slot(i)) BufferSlice(std::move(*src));
        src->~BufferSlice();
      }
    }
    other.slice_count_ = 0;
    other.size_ = 0;
  }
  Payload& operator=(const Payload&);
  Payload& operator=(Payload&& other) noexcept {
    if (this == &other) return *this;
    clear();
    spill_ = std::move(other.spill_);
    slice_count_ = other.slice_count_;
    size_ = other.size_;
    if (spill_ == nullptr) {
      for (std::uint32_t i = 0; i < slice_count_; ++i) {
        BufferSlice* src = other.slice_at(i);
        ::new (raw_slot(i)) BufferSlice(std::move(*src));
        src->~BufferSlice();
      }
    }
    other.slice_count_ = 0;
    other.size_ = 0;
    return *this;
  }
  ~Payload() { clear(); }

  // --- vector-compatible surface -------------------------------------------
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear() {
    if (spill_ != nullptr) {
      spill_.reset();
    } else {
      for (std::uint32_t i = 0; i < slice_count_; ++i) {
        slice_at(i)->~BufferSlice();
      }
    }
    slice_count_ = 0;
    size_ = 0;
  }
  void assign(std::size_t n, std::uint8_t value);
  /// Read access; walks the slice chain.
  std::uint8_t operator[](std::size_t index) const { return byte(index); }
  /// Mutable access: copy-on-write. Linearizes shared storage first, so the
  /// returned reference never aliases another frame's bytes.
  std::uint8_t& operator[](std::size_t index) {
    ensure_owned();
    return slice_at(0)->buf->data()[index];
  }
  /// Flips one bit (fault-injection corruption hook), copy-on-write.
  void flip_bit(std::size_t bit) {
    (*this)[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  std::vector<std::uint8_t> to_vector() const;
  /*implicit*/ operator std::vector<std::uint8_t>() const {  // NOLINT
    return to_vector();
  }

  // --- scatter-gather surface ----------------------------------------------
  std::size_t slice_count() const { return slice_count_; }
  const BufferSlice& slice(std::size_t i) const { return *slice_at(i); }
  /// Appends a view; no bytes move. Adjacent views of one block coalesce
  /// (common when a writer emits consecutive spans of one chunk).
  void append(BufferSlice slice) {
    if (slice.size == 0) return;
    size_ += slice.size;
    if (slice_count_ > 0) {
      BufferSlice* last = slice_at(slice_count_ - 1);
      if (last->buf.get() == slice.buf.get() &&
          last->offset + last->size == slice.offset) {
        last->size += slice.size;
        return;
      }
    }
    if (spill_ == nullptr && slice_count_ < kInlineSlices) {
      ::new (raw_slot(slice_count_)) BufferSlice(std::move(slice));
      ++slice_count_;
      return;
    }
    push_slice(std::move(slice));
  }
  /// Appends a view of `[offset, offset+size)` of `block`.
  void append(const BufferRef& block, std::size_t offset, std::size_t size) {
    BufferSlice slice;
    slice.buf = block;
    slice.offset = static_cast<std::uint32_t>(offset);
    slice.size = static_cast<std::uint32_t>(size);
    append(std::move(slice));
  }
  /// Appends every slice of `other` (reassembly chain building).
  void append(const Payload& other);
  /// A sub-view [offset, offset+length); refcount bumps only, no copy.
  Payload subspan(std::size_t offset,
                  std::size_t length = static_cast<std::size_t>(-1)) const;
  /// Drops bytes from the tail (CRC trailer removal); views only.
  void truncate(std::size_t new_size);
  /// Copies the chain's bytes into `dst` (must hold size() bytes).
  void copy_to(std::uint8_t* dst) const;
  std::uint8_t byte(std::size_t index) const;
  /// Largest contiguous prefix run: data pointer + its length. Fast path
  /// for header parsing (a fragment's first slice is its 6-byte header).
  const std::uint8_t* contiguous_prefix(std::size_t* length) const {
    if (slice_count_ == 0) {
      *length = 0;
      return nullptr;
    }
    const BufferSlice* s = slice_at(0);
    *length = s->size;
    return s->data();
  }

 private:
  void adopt(std::vector<std::uint8_t> bytes);
  void assign_bytes(const std::uint8_t* data, std::size_t n);
  /// Collapses the chain into one uniquely-owned block (COW backing).
  void ensure_owned();
  /// Raw inline storage: slices are placement-new'd on append and destroyed
  /// on clear, so constructing or moving a Payload never touches inactive
  /// slots (a default-constructed array would zero 64 bytes per Payload on
  /// this hot path).
  void* raw_slot(std::size_t i) {
    return static_cast<void*>(inline_mem_ + i * sizeof(BufferSlice));
  }
  BufferSlice* inline_at(std::size_t i) {
    return std::launder(reinterpret_cast<BufferSlice*>(inline_mem_)) + i;
  }
  const BufferSlice* inline_at(std::size_t i) const {
    return std::launder(reinterpret_cast<const BufferSlice*>(inline_mem_)) + i;
  }
  BufferSlice* slice_at(std::size_t i) {
    return spill_ != nullptr ? &(*spill_)[i] : inline_at(i);
  }
  const BufferSlice* slice_at(std::size_t i) const {
    return spill_ != nullptr ? &(*spill_)[i] : inline_at(i);
  }
  /// Slow path of append(): spill to the heap vector (inline array full).
  void push_slice(BufferSlice&& slice);

  alignas(BufferSlice) std::byte inline_mem_[kInlineSlices *
                                             sizeof(BufferSlice)];
  std::unique_ptr<std::vector<BufferSlice>> spill_;
  std::uint32_t slice_count_ = 0;
  std::size_t size_ = 0;
};

/// FNV-1a over a payload chain without linearizing (bench cross-checks,
/// wire-format parity fingerprints).
std::uint64_t payload_fnv1a(const Payload& payload,
                            std::uint64_t hash = obs::kFnvOffset);

}  // namespace dynaplat::net
