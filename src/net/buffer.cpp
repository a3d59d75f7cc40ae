#include "net/buffer.hpp"

#include <algorithm>

namespace dynaplat::net {

namespace detail {

/// One recyclable allocation: header + Block + payload bytes, carved from a
/// single heap allocation. Chunks never shrink back to the heap while the
/// arena lives — release() threads them onto the free list instead.
struct ArenaState::Chunk {
  Chunk* next_free = nullptr;
  ArenaState* state = nullptr;
  Block block;
  // payload bytes follow the struct
  std::uint8_t* bytes() { return reinterpret_cast<std::uint8_t*>(this + 1); }
};

namespace {

void destroy_chunk(ArenaState::Chunk* chunk) {
  chunk->~Chunk();
  ::operator delete(static_cast<void*>(chunk));
}

void maybe_destroy_state(ArenaState* state) {
  if (state->alive || state->outstanding != 0) return;
  ArenaState::Chunk* chunk = state->free_head;
  while (chunk != nullptr) {
    ArenaState::Chunk* next = chunk->next_free;
    destroy_chunk(chunk);
    chunk = next;
  }
  delete state;
}

}  // namespace

}  // namespace detail

void Block::release() {
  if (--refcount_ != 0) return;
  if (arena_ != nullptr) {
    detail::ArenaState* state = arena_;
    auto* chunk = static_cast<detail::ArenaState::Chunk*>(chunk_);
    --state->outstanding;
    if (state->alive) {
      chunk->next_free = state->free_head;
      state->free_head = chunk;
    } else {
      // Arena died while this block was in flight (e.g. a frame still
      // queued in a medium after its Transport was destroyed): the chunk
      // has no free list to return to.
      detail::destroy_chunk(chunk);
      detail::maybe_destroy_state(state);
    }
  } else {
    delete this;
  }
}

BufferRef BufferRef::adopt_vector(std::vector<std::uint8_t> bytes) {
  auto* block = new Block();
  block->storage_ = std::move(bytes);
  block->vector_backed_ = true;
  block->data_ = block->storage_.data();
  block->size_ = block->storage_.size();
  block->capacity_ = block->storage_.size();
  return BufferRef(block);
}

BufferRef BufferRef::copy_bytes(const std::uint8_t* data, std::size_t size) {
  return adopt_vector(std::vector<std::uint8_t>(data, data + size));
}

BufferArena::BufferArena()
    : small_(new detail::ArenaState()), large_(new detail::ArenaState()) {
  small_->chunk_capacity = kSmallCapacity;
  large_->chunk_capacity = kLargeCapacity;
}

BufferArena::~BufferArena() {
  for (detail::ArenaState* state : {small_, large_}) {
    state->alive = false;
    detail::maybe_destroy_state(state);
  }
}

BufferRef BufferArena::alloc(std::size_t size) {
  if (size <= kSmallCapacity) return alloc_from(small_, size);
  if (size <= kLargeCapacity) return alloc_from(large_, size);
  // Oversize (e.g. a many-KiB linearization): plain heap block. Rare by
  // construction — fragmentation splits messages well below this.
  ++oversize_allocs_;
  auto* block = new Block();
  block->storage_.resize(size);
  block->data_ = block->storage_.data();
  block->size_ = size;
  block->capacity_ = size;
  return BufferRef(block);
}

BufferRef BufferArena::alloc_from(detail::ArenaState* state, std::size_t size) {
  detail::ArenaState::Chunk* chunk = state->free_head;
  if (chunk != nullptr) {
    state->free_head = chunk->next_free;
    chunk->next_free = nullptr;
    ++state->chunks_reused;
  } else {
    void* raw = ::operator new(sizeof(detail::ArenaState::Chunk) +
                               state->chunk_capacity);
    chunk = ::new (raw) detail::ArenaState::Chunk();
    chunk->state = state;
    chunk->block.arena_ = state;
    chunk->block.chunk_ = chunk;
    ++state->chunks_allocated;
  }
  ++state->outstanding;
  Block* block = &chunk->block;
  block->data_ = chunk->bytes();
  block->size_ = size;
  block->capacity_ = state->chunk_capacity;
  return BufferRef(block);
}

Payload::Payload(const Payload& other) { append(other); }

Payload& Payload::operator=(const Payload& other) {
  if (this == &other) return *this;
  clear();
  append(other);
  return *this;
}

void Payload::assign(std::size_t n, std::uint8_t value) {
  clear();
  std::vector<std::uint8_t> bytes(n, value);
  adopt(std::move(bytes));
}

void Payload::adopt(std::vector<std::uint8_t> bytes) {
  if (bytes.empty()) return;
  std::size_t n = bytes.size();
  BufferRef block = BufferRef::adopt_vector(std::move(bytes));
  append(block, 0, n);
}

void Payload::assign_bytes(const std::uint8_t* data, std::size_t n) {
  if (n == 0) return;
  BufferRef block = BufferRef::copy_bytes(data, n);
  append(block, 0, n);
}

void Payload::push_slice(BufferSlice&& slice) {
  if (spill_ == nullptr) {
    spill_ = std::make_unique<std::vector<BufferSlice>>();
    spill_->reserve(kInlineSlices * 2);
    for (std::uint32_t i = 0; i < slice_count_; ++i) {
      BufferSlice* s = inline_at(i);
      spill_->push_back(std::move(*s));
      s->~BufferSlice();
    }
  }
  spill_->push_back(std::move(slice));
  ++slice_count_;
}

void Payload::append(const Payload& other) {
  for (std::size_t i = 0; i < other.slice_count_; ++i) {
    append(*other.slice_at(i));
  }
}

Payload Payload::subspan(std::size_t offset, std::size_t length) const {
  Payload out;
  if (offset >= size_) return out;
  std::size_t remaining = std::min(length, size_ - offset);
  for (std::size_t i = 0; i < slice_count_ && remaining > 0; ++i) {
    const BufferSlice* s = slice_at(i);
    if (offset >= s->size) {
      offset -= s->size;
      continue;
    }
    std::size_t take = std::min<std::size_t>(s->size - offset, remaining);
    out.append(s->buf, s->offset + offset, take);
    remaining -= take;
    offset = 0;
  }
  return out;
}

void Payload::truncate(std::size_t new_size) {
  if (new_size >= size_) return;
  std::size_t keep = new_size;
  std::uint32_t kept_slices = 0;
  for (std::size_t i = 0; i < slice_count_; ++i) {
    if (keep == 0) break;
    BufferSlice* s = slice_at(i);
    if (s->size >= keep) {
      s->size = static_cast<std::uint32_t>(keep);
      keep = 0;
    } else {
      keep -= s->size;
    }
    ++kept_slices;
  }
  if (spill_ != nullptr) {
    spill_->resize(kept_slices);
  } else {
    for (std::uint32_t i = kept_slices; i < slice_count_; ++i) {
      inline_at(i)->~BufferSlice();
    }
  }
  slice_count_ = kept_slices;
  size_ = new_size;
}

void Payload::copy_to(std::uint8_t* dst) const {
  for (std::size_t i = 0; i < slice_count_; ++i) {
    const BufferSlice* s = slice_at(i);
    std::memcpy(dst, s->data(), s->size);
    dst += s->size;
  }
}

std::uint8_t Payload::byte(std::size_t index) const {
  for (std::size_t i = 0; i < slice_count_; ++i) {
    const BufferSlice* s = slice_at(i);
    if (index < s->size) return s->data()[index];
    index -= s->size;
  }
  assert(false && "Payload::byte index out of range");
  return 0;
}

std::vector<std::uint8_t> Payload::to_vector() const {
  std::vector<std::uint8_t> out(size_);
  if (size_ != 0) copy_to(out.data());
  return out;
}

void Payload::ensure_owned() {
  if (slice_count_ == 1) {
    BufferSlice* s = slice_at(0);
    Block* b = s->buf.get();
    // Already private: sole reference, and the view spans the whole block
    // (a partial view could alias bytes another slice sees).
    if (b->unique() && s->offset == 0 && s->size == b->size()) return;
  }
  std::vector<std::uint8_t> flat = to_vector();
  std::size_t n = flat.size();
  BufferRef block = BufferRef::adopt_vector(std::move(flat));
  clear();
  if (n != 0) append(block, 0, n);
}

std::uint64_t payload_fnv1a(const Payload& payload, std::uint64_t hash) {
  for (std::size_t i = 0; i < payload.slice_count(); ++i) {
    const BufferSlice& s = payload.slice(i);
    hash = obs::fnv1a(hash, s.data(), s.size);
  }
  return hash;
}

}  // namespace dynaplat::net
