#pragma once
// GenomeTable: a flat, open-addressed set of fixed-width gene rows.
//
// The memo (core/evaluator.hpp), the dataset lookup (ip/dataset.hpp) and
// the exact de-duplication of sampled points all map a genome to a dense
// row index.  A node-based std::unordered_map<Genome, ...> pays two heap
// allocations per insert, a prime-modulo bucket walk and a pointer chase
// per probe, plus Genome::key()'s per-gene splitmix hash.  GenomeTable
// instead keeps
//  * every row's genes packed in one contiguous std::vector<std::uint32_t>
//    (row r occupies [r * width, (r + 1) * width));
//  * a power-of-two slot array probed linearly, each slot holding a row
//    index plus 32 hash bits that reject most mismatches without touching
//    the genes;
//  * a cheap in-process hash: one multiply per gene and one final mix.
//
// Row indices are dense (0, 1, 2, ... in insertion order) and stable:
// growth reallocates the gene and slot arrays, never renumbers a row, so
// callers keep per-row data in parallel vectors indexed by row.  Rows are
// never removed; clear() forgets them all.
//
// The hash is an in-process detail and is never persisted: stores,
// checkpoints, quarantine lists and traces keep using Genome::key().
//
// The width is fixed by the first insert (or reset()).  find() of a row of
// another width answers npos; find_or_insert() of one throws.

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace nautilus {

class GenomeTable {
public:
    static constexpr std::uint32_t npos = ~std::uint32_t{0};

    GenomeTable() = default;

    // Forget every row and fix the width (keeps capacity).
    void reset(std::size_t width);
    // Forget every row; the next insert fixes the width again.
    void clear();

    // Make room for `rows` rows without further growth.
    void reserve(std::size_t rows);

    std::size_t size() const { return rows_; }
    bool empty() const { return rows_ == 0; }
    std::size_t width() const { return width_; }

    std::span<const std::uint32_t> row(std::size_t r) const
    {
        return std::span<const std::uint32_t>(genes_).subspan(r * width_, width_);
    }

    // Row index of `genes`, or npos.
    std::uint32_t find(std::span<const std::uint32_t> genes) const
    {
        if (rows_ == 0 || genes.size() != width_) return npos;
        const std::uint64_t h = hash(genes);
        const std::uint32_t tag = static_cast<std::uint32_t>(h >> 32);
        for (std::size_t s = static_cast<std::size_t>(h) & mask_;; s = (s + 1) & mask_) {
            const Slot slot = slots_[s];
            if (slot.row == npos) return npos;
            if (slot.tag == tag && equal_row(slot.row, genes)) return slot.row;
        }
    }

    // (row index, inserted): the existing row of `genes`, or a new row
    // appended with the next index.
    std::pair<std::uint32_t, bool> find_or_insert(std::span<const std::uint32_t> genes);

    // The in-process hash: a multiply per gene, then one final mix.
    static std::uint64_t hash(std::span<const std::uint32_t> genes)
    {
        std::uint64_t h = 0x243f6a8885a308d3ull;
        for (const std::uint32_t g : genes) h = (h ^ g) * 0x9e3779b97f4a7c15ull;
        h ^= h >> 32;
        h *= 0xd6e8feb86659fd93ull;
        return h ^ (h >> 32);
    }

private:
    struct Slot {
        std::uint32_t row = npos;
        std::uint32_t tag = 0;  // high 32 bits of the row's hash
    };

    bool equal_row(std::uint32_t r, std::span<const std::uint32_t> genes) const
    {
        const std::uint32_t* stored = genes_.data() + static_cast<std::size_t>(r) * width_;
        for (std::size_t i = 0; i < width_; ++i)
            if (stored[i] != genes[i]) return false;
        return true;
    }

    // Re-slot every row into `slot_count` (a power of two) slots.
    void rehash(std::size_t slot_count);

    std::size_t width_ = 0;
    bool width_fixed_ = false;
    std::size_t rows_ = 0;
    std::size_t mask_ = 0;        // slots_.size() - 1
    std::vector<std::uint32_t> genes_;
    std::vector<Slot> slots_;
};

}  // namespace nautilus
