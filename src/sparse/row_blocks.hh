/**
 * @file
 * Parallel row-block emission: the one place matrix generation uses
 * threads.
 *
 * Every generator row is a pure function of (params, row) - it draws
 * from its own RNG stream (sparse/generators.hh) - so a run of rows can
 * be split into contiguous blocks that worker threads emit
 * independently. Concatenated in row order, the blocks hold exactly the
 * rows a sequential RowEmitter loop yields, for any worker count.
 * makeMatrix(), makeBenchmarkMatrix() and buildPartitionedMatrix() all
 * generate through emitRowBlocks().
 */

#ifndef NETSPARSE_SPARSE_ROW_BLOCKS_HH
#define NETSPARSE_SPARSE_ROW_BLOCKS_HH

#include <cstdint>
#include <span>
#include <vector>

#include "sparse/generators.hh"

namespace netsparse {

/** A contiguous run of emitted rows. */
struct RowBlock
{
    /** Nonzeros of each row of the block, in row order. */
    std::vector<std::uint32_t> degrees;
    /** The rows' column indices, back to back in emission order. */
    std::vector<std::uint32_t> cols;
};

/**
 * Emit rows [@p begin, @p end) of @p gen as contiguous blocks, one per
 * worker thread, returned in row order.
 *
 * @param workers threads to split the rows over; 0 picks the host's
 *        hardware concurrency, lowered so that every worker gets a few
 *        thousand rows. Never more workers than rows. The output does
 *        not depend on this value.
 */
std::vector<RowBlock> emitRowBlocks(const RowEmitter &gen,
                                    std::uint32_t begin, std::uint32_t end,
                                    unsigned workers);

/**
 * Call fn(row, cols) for every row of @p blocks in row order, numbering
 * rows from @p firstRow. Each block is released once visited, so
 * copying the rows elsewhere never holds both copies in full.
 */
template <class Fn>
void
consumeRowBlocks(std::vector<RowBlock> &blocks, std::uint32_t firstRow,
                 Fn &&fn)
{
    for (RowBlock &b : blocks) {
        const std::uint32_t *cols = b.cols.data();
        for (std::uint32_t deg : b.degrees) {
            fn(firstRow++, std::span<const std::uint32_t>(cols, deg));
            cols += deg;
        }
        b = RowBlock{};
    }
}

} // namespace netsparse

#endif // NETSPARSE_SPARSE_ROW_BLOCKS_HH
