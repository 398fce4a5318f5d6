// Collision table for World's bulk ID placement.
//
// FlatRing's searches are unusable mid-bulk-load (the index is unsorted
// until finalize_bulk), so construction checks each drawn ID against the
// IDs placed so far here: one flat open-addressing vector of ring slots,
// sized once, with no per-ID allocation.  SHA-1 output is uniform, so an
// ID's low 64 bits already make a perfect hash; equality stays full-width
// by reading a stored slot's ID back from the ring.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <vector>

#include "sim/flat_ring.hpp"

namespace dhtlb::sim {

class IdTable {
 public:
  /// Room for `n` IDs at a load factor of at most 1/2.
  explicit IdTable(std::size_t n)
      : cells_(std::bit_ceil(std::max<std::size_t>(2 * n, 2)),
               FlatRing::kNoSlot) {}

  /// The cell that holds `id`'s slot, else the empty cell where it
  /// belongs.  Probing starts at the cell of the ID's low 64 bits and
  /// steps linearly, wrapping at the end; a stored slot matches only
  /// when ring.id_of(slot) equals `id` in all 160 bits.
  std::size_t probe(const Uint160& id, const FlatRing& ring) const {
    const std::size_t mask = cells_.size() - 1;
    std::size_t cell = static_cast<std::size_t>(id.low64()) & mask;
    while (occupied(cell) && !(ring.id_of(cells_[cell]) == id)) {
      cell = (cell + 1) & mask;
    }
    return cell;
  }

  bool occupied(std::size_t cell) const {
    return cells_[cell] != FlatRing::kNoSlot;
  }

  /// Records `slot` in the empty cell probe() returned for its ID.
  void fill(std::size_t cell, Slot slot) { cells_[cell] = slot; }

  std::size_t capacity() const { return cells_.size(); }

 private:
  std::vector<Slot> cells_;
};

}  // namespace dhtlb::sim
