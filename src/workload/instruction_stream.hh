/**
 * @file
 * Abstract source of pre-decoded micro-ops for the core.
 *
 * Streams play the role of SimpleScalar EIO traces in the paper's
 * methodology: they supply the committed (correct) execution path, and the
 * core consults the stream again to synthesize plausible wrong-path ops
 * after a branch misprediction.
 */

#ifndef THERMCTL_WORKLOAD_INSTRUCTION_STREAM_HH
#define THERMCTL_WORKLOAD_INSTRUCTION_STREAM_HH

#include <cstdint>

#include "isa/micro_op.hh"

namespace thermctl
{

/** Interface for correct-path micro-op sources. */
class InstructionStream
{
  public:
    virtual ~InstructionStream() = default;

    /**
     * Produce the next correct-path micro-op. Calling next() advances the
     * stream; the core buffers ops it has fetched but not yet committed.
     */
    virtual MicroOp next() = 0;

    /**
     * Synthesize a plausible wrong-path micro-op at the given PC. Wrong
     * path ops occupy pipeline resources and consume power until the
     * mispredicted branch resolves, but never commit.
     */
    virtual MicroOp synthesizeAt(Addr pc) = 0;

    /**
     * Produce the next correct-path micro-op for a consumer that draws
     * ops ahead of the core: like next(), except that synthesizeAt()
     * keeps answering as of the op last passed to take(). `tag`
     * receives what take() needs for this op. May run on another thread
     * than synthesizeAt() and take(), but never concurrently with
     * next(), nextAhead() or done(). The default suits a stream whose
     * synthesizeAt() does not depend on what next() has produced.
     */
    virtual MicroOp
    nextAhead(std::uint32_t &tag)
    {
        tag = 0;
        return next();
    }

    /** The core took the op that nextAhead() tagged `tag`. */
    virtual void take(std::uint32_t tag) { (void)tag; }

    /**
     * @return true when the stream is exhausted. Synthetic workloads are
     * infinite and always return false.
     */
    virtual bool done() const { return false; }
};

} // namespace thermctl

#endif // THERMCTL_WORKLOAD_INSTRUCTION_STREAM_HH
