#include "sim/arena.hh"

#include <algorithm>

namespace netsparse {

namespace {

/**
 * The calling thread's live arenas. An arena's constructor is the first
 * to touch this list, so the list outlives every arena of the thread
 * (thread-locals are destroyed in reverse order of construction).
 */
std::vector<ArenaBase *> &
threadArenas()
{
    thread_local std::vector<ArenaBase *> arenas;
    return arenas;
}

} // namespace

ArenaBase::ArenaBase()
{
    threadArenas().push_back(this);
}

ArenaBase::~ArenaBase()
{
    auto &arenas = threadArenas();
    arenas.erase(std::find(arenas.begin(), arenas.end(), this));
}

ArenaStats
drainThreadArenas()
{
    ArenaStats total;
    for (ArenaBase *a : threadArenas()) {
        total.add(a->stats());
        a->release();
    }
    return total;
}

} // namespace netsparse
