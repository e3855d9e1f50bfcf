#include "sparse/row_blocks.hh"

#include <algorithm>
#include <exception>
#include <thread>

#include "sim/logging.hh"

namespace netsparse {

namespace {

/**
 * Fewest rows worth a thread of their own when the worker count is
 * picked automatically: starting a thread costs about as much as
 * emitting a hundred rows, so small matrices stay on fewer threads.
 */
constexpr std::uint32_t kMinRowsPerWorker = 4096;

/**
 * Size @p block for rows [begin, end) with some headroom over the mean
 * degree. This runs on the calling thread, so that a block's memory
 * comes from, and returns to, that thread's allocator arena rather than
 * staying cached in a worker's arena after the worker is gone.
 */
void
reserveBlock(const RowEmitter &gen, std::uint32_t begin, std::uint32_t end,
             RowBlock &block)
{
    block.degrees.reserve(end - begin);
    block.cols.reserve(static_cast<std::size_t>(
        (end - begin) * std::max(1.0, gen.expectedDegree()) * 1.1 + 64));
}

void
emitBlock(const RowEmitter &gen, std::uint32_t begin, std::uint32_t end,
          RowBlock &block)
{
    for (std::uint32_t r = begin; r < end; ++r) {
        std::size_t before = block.cols.size();
        gen.emitRow(r, block.cols);
        block.degrees.push_back(
            static_cast<std::uint32_t>(block.cols.size() - before));
    }
}

} // namespace

std::vector<RowBlock>
emitRowBlocks(const RowEmitter &gen, std::uint32_t begin, std::uint32_t end,
              unsigned workers)
{
    ns_assert(begin <= end && end <= gen.rows(), "row range [", begin, ", ",
              end, ") out of bounds");
    const std::uint32_t rows = end - begin;
    if (workers == 0)
        workers = std::min(std::max(1u, std::thread::hardware_concurrency()),
                           std::max(1u, rows / kMinRowsPerWorker));
    workers = std::min(workers, std::max(1u, rows));

    std::vector<RowBlock> blocks(workers);
    auto block_begin = [&](unsigned b) {
        return begin + static_cast<std::uint32_t>(
                           std::uint64_t(rows) * b / workers);
    };
    for (unsigned b = 0; b < workers; ++b)
        reserveBlock(gen, block_begin(b), block_begin(b + 1), blocks[b]);

    // A worker's exception is carried back and rethrown here rather
    // than terminating the program.
    std::vector<std::exception_ptr> errors(workers);
    auto emit = [&](unsigned b) {
        try {
            emitBlock(gen, block_begin(b), block_begin(b + 1), blocks[b]);
        } catch (...) {
            errors[b] = std::current_exception();
        }
    };
    {
        // Block 0 runs on the calling thread. The workers join when
        // this scope ends, also when starting one of them throws.
        std::vector<std::jthread> threads;
        threads.reserve(workers - 1);
        for (unsigned b = 1; b < workers; ++b)
            threads.emplace_back(emit, b);
        emit(0);
    }
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
    return blocks;
}

} // namespace netsparse
