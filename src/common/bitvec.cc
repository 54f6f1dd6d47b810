#include "common/bitvec.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/logging.hh"

namespace astra
{

BitVec::BitVec(std::size_t nbits) : _nbits(nbits)
{
    if (onHeap())
        _heap = std::make_unique<std::uint64_t[]>(numWords());
}

BitVec &
BitVec::operator=(const BitVec &o)
{
    if (this == &o)
        return *this;
    // Reuse the heap block when the word count matches.
    if (!o.onHeap())
        _heap.reset();
    else if (!_heap || numWords() != o.numWords())
        _heap = std::make_unique_for_overwrite<std::uint64_t[]>(o.numWords());
    _nbits = o._nbits;
    std::copy_n(o.words(), onHeap() ? numWords() : kInlineWords, words());
    return *this;
}

BitVec &
BitVec::operator=(BitVec &&o) noexcept
{
    if (this == &o)
        return *this;
    _nbits = std::exchange(o._nbits, 0);
    _heap = std::move(o._heap);
    std::copy_n(o._inline, kInlineWords, _inline);
    std::fill_n(o._inline, kInlineWords, 0);
    return *this;
}

void
BitVec::checkSize(const BitVec &o) const
{
    if (_nbits != o._nbits)
        panic("BitVec size mismatch (%zu vs %zu)", _nbits, o._nbits);
}

std::size_t
BitVec::count() const
{
    const std::uint64_t *w = words();
    std::size_t n = 0;
    for (std::size_t i = 0; i < numWords(); ++i)
        n += static_cast<std::size_t>(std::popcount(w[i]));
    return n;
}

bool
BitVec::none() const
{
    const std::uint64_t *w = words();
    for (std::size_t i = 0; i < numWords(); ++i) {
        if (w[i])
            return false;
    }
    return true;
}

BitVec &
BitVec::operator|=(const BitVec &o)
{
    checkSize(o);
    std::uint64_t *w = words();
    const std::uint64_t *ow = o.words();
    for (std::size_t i = 0; i < numWords(); ++i)
        w[i] |= ow[i];
    return *this;
}

BitVec &
BitVec::operator&=(const BitVec &o)
{
    checkSize(o);
    std::uint64_t *w = words();
    const std::uint64_t *ow = o.words();
    for (std::size_t i = 0; i < numWords(); ++i)
        w[i] &= ow[i];
    return *this;
}

bool
BitVec::intersects(const BitVec &o) const
{
    checkSize(o);
    const std::uint64_t *w = words();
    const std::uint64_t *ow = o.words();
    for (std::size_t i = 0; i < numWords(); ++i) {
        if (w[i] & ow[i])
            return true;
    }
    return false;
}

bool
BitVec::operator==(const BitVec &o) const
{
    return _nbits == o._nbits &&
           std::equal(words(), words() + numWords(), o.words());
}

std::string
BitVec::toString() const
{
    std::string s;
    s.reserve(_nbits);
    for (std::size_t i = 0; i < _nbits; ++i)
        s.push_back(test(i) ? '1' : '0');
    return s;
}

} // namespace astra
