#include "core/genome_table.hpp"

#include <algorithm>
#include <stdexcept>

namespace nautilus {

namespace {

// The slot array grows before its load passes 3/4, which keeps linear
// probes short while the 32-bit tags reject most mismatches unread.
constexpr std::size_t k_min_slots = 16;

bool over_load(std::size_t rows, std::size_t slots)
{
    return rows * 4 > slots * 3;
}

std::size_t slots_for(std::size_t rows)
{
    std::size_t slots = k_min_slots;
    while (over_load(rows, slots)) slots *= 2;
    return slots;
}

}  // namespace

void GenomeTable::reset(std::size_t width)
{
    clear();
    width_ = width;
    width_fixed_ = true;
}

void GenomeTable::clear()
{
    rows_ = 0;
    width_ = 0;
    width_fixed_ = false;
    genes_.clear();
    std::fill(slots_.begin(), slots_.end(), Slot{});
}

void GenomeTable::reserve(std::size_t rows)
{
    if (width_fixed_) genes_.reserve(rows * width_);
    if (slots_for(rows) > slots_.size()) rehash(slots_for(rows));
}

std::pair<std::uint32_t, bool> GenomeTable::find_or_insert(std::span<const std::uint32_t> genes)
{
    if (!width_fixed_) {
        width_ = genes.size();
        width_fixed_ = true;
    }
    else if (genes.size() != width_) {
        throw std::invalid_argument("GenomeTable: genome width differs from the table's");
    }
    if (over_load(rows_ + 1, slots_.size())) rehash(slots_for(rows_ + 1));
    const std::uint64_t h = hash(genes);
    const std::uint32_t tag = static_cast<std::uint32_t>(h >> 32);
    std::size_t s = static_cast<std::size_t>(h) & mask_;
    for (;; s = (s + 1) & mask_) {
        const Slot slot = slots_[s];
        if (slot.row == npos) break;
        if (slot.tag == tag && equal_row(slot.row, genes)) return {slot.row, false};
    }
    if (rows_ >= npos) throw std::length_error("GenomeTable: row index space exhausted");
    const auto r = static_cast<std::uint32_t>(rows_++);
    genes_.insert(genes_.end(), genes.begin(), genes.end());
    slots_[s] = Slot{r, tag};
    return {r, true};
}

void GenomeTable::rehash(std::size_t slot_count)
{
    slots_.assign(slot_count, Slot{});
    mask_ = slot_count - 1;
    for (std::size_t r = 0; r < rows_; ++r) {
        const std::uint64_t h = hash(row(r));
        std::size_t s = static_cast<std::size_t>(h) & mask_;
        while (slots_[s].row != npos) s = (s + 1) & mask_;
        slots_[s] = Slot{static_cast<std::uint32_t>(r), static_cast<std::uint32_t>(h >> 32)};
    }
}

}  // namespace nautilus
