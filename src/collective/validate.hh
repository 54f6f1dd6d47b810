/**
 * @file
 * Chunk state-machine legality (integrity layer, docs/validation.md).
 *
 * Every ChunkState mutation is classified as a ChunkOp; which ops are
 * legal depends only on the collective kind and on whether the chunk
 * has been finalized. The table lives here as a free function so the
 * death tests can probe it directly, and ChunkState consults the same
 * table (runtime level >= basic) before mutating:
 *
 *  - reduce-scatter moves partial sums: payloads may only reduce-merge,
 *    never install, and block ops never apply;
 *  - all-gather moves finished elements: payloads may only install;
 *  - all-reduce is RS followed by AG, so both payload flavours and the
 *    phase-boundary restrict are legal;
 *  - all-to-all moves (src,dst) blocks and never touches the
 *    range/contribution view;
 *  - a finalized (Done) chunk accepts no further ops.
 */

#ifndef ASTRA_COLLECTIVE_VALIDATE_HH
#define ASTRA_COLLECTIVE_VALIDATE_HH

#include "common/types.hh"

namespace astra
{

/** Classification of every ChunkState mutation the FSM gates. */
enum class ChunkOp
{
    MakePayload,  //!< extract a range payload to send
    ApplyReduce,  //!< merge an incoming reduce payload
    ApplyInstall, //!< install an incoming all-gather payload
    Restrict,     //!< shrink the valid range at an RS phase boundary
    TakeBlocks,   //!< remove all-to-all blocks for forwarding
    AddBlocks,    //!< install forwarded all-to-all blocks
    Timeout,      //!< a send of this chunk timed out (fault layer)
    Retry,        //!< the timed-out send is being retransmitted
    Finalize,     //!< seal the chunk when its collective completes
};

const char *toString(ChunkOp op);

namespace validate
{

/**
 * The legal-transition table: is @p op permitted on a chunk of
 * collective @p kind that is (@p done) already finalized?
 */
bool chunkOpLegal(CollectiveKind kind, ChunkOp op, bool done);

/**
 * Check @p op against the table and raise an ASTRA_CHECK diagnostic
 * naming the op, collective kind, and @p rank on violation.
 */
void chunkTransition(CollectiveKind kind, ChunkOp op, bool done,
                     int rank);

} // namespace validate

} // namespace astra

#endif // ASTRA_COLLECTIVE_VALIDATE_HH
