#include "branch/gag.hh"

#include "common/logging.hh"

namespace thermctl
{

GAgPredictor::GAgPredictor(std::size_t entries, unsigned history_bits)
    : table_(entries, Counter2(1)),
      index_mask_(entries - 1),
      history_mask_((history_bits >= 32) ? 0xffffffffu
                                         : ((1u << history_bits) - 1))
{
    if (entries == 0 || (entries & (entries - 1)) != 0)
        fatal("GAgPredictor size must be a power of two, got ", entries);
    if (history_bits == 0 || history_bits > 32)
        fatal("GAgPredictor history bits must be in [1, 32], got ",
              history_bits);
}

bool
GAgPredictor::predictWith(std::uint32_t history) const
{
    return table_[(history & history_mask_) & index_mask_].taken();
}

void
GAgPredictor::updateWith(std::uint32_t history, bool taken)
{
    table_[(history & history_mask_) & index_mask_].train(taken);
}

} // namespace thermctl
