// Algorithm 1 (BalancedRouting, after Bader et al. [10] as used in the
// paper): an arbitrary h-relation is replaced by two rounds of balanced
// communication. Byte l of the message src -> dst is assigned to bin
// (src + dst + l) mod v; bin k travels src -> k in round A, is regrouped by
// final destination at k, and travels k -> dst in round B. Theorem 1: every
// round-A and round-B message carries total-bytes/v +- O(v) payload.
//
// The three functions below are pure per-processor transformations, which
// both engines apply through their shared superstep protocol
// (cgm/superstep.h): encode ends a compute superstep, transform_intermediate
// runs the regroup superstep after it (Lemma 2 doubles the superstep count),
// and decode rebuilds the next compute superstep's inbox.
//
// Read a len-byte message as floor(len / v) rows of v bytes plus a tail of
// len mod v bytes: column c (bytes c, c + v, c + 2v, ...) is exactly the
// fragment for bin (src + dst + c) mod v. Encode transposes rows into
// columns and decode transposes them back, so each stage reads its input
// once and writes every output byte once, into buffers sized up front.
//
// Wire format of a physical payload (both phases): a sequence of fragment
// records {u32 orig_src, u32 final_dst, u64 total_len, u64 frag_len,
// frag_len bytes}. Round A lists a source's fragments in outbox order;
// round B lists them by orig_src ascending. Headers are bookkeeping overhead
// of O(v) per processor pair and are excluded from the balance analysis
// (data_bytes below). Regroup and decode reject a malformed record
// (truncated, overrunning its payload, naming a processor outside v, or
// carrying other than its round-robin share of the message) with
// emcgm::Error before allocating anything from it; decode also rejects a
// fragment delivered twice, even when the byte count still adds up.
#pragma once

#include <cstdint>
#include <vector>

#include "cgm/message.h"

namespace emcgm::routing {

/// Phase A at `src`: outbox -> physical round-A messages (one per
/// intermediate with non-empty bin).
std::vector<cgm::Message> encode_phase_a(std::uint32_t v, std::uint32_t src,
                                         const std::vector<cgm::Message>& outbox);

/// At intermediate k: regroup the fragments received in round A by final
/// destination and emit the physical round-B messages.
std::vector<cgm::Message> transform_intermediate(
    std::uint32_t v, std::uint32_t k, const std::vector<cgm::Message>& inbox);

/// At final destination `dst`: reassemble the original application messages
/// from the round-B fragment streams. The byte-level round-robin assignment
/// is deterministic, so each fragment's bytes go back to positions
/// l0, l0+v, l0+2v, ... (column l0) of the original message.
std::vector<cgm::Message> decode_phase_b(std::uint32_t v, std::uint32_t dst,
                                         const std::vector<cgm::Message>& inbox);

/// Payload bytes net of fragment headers in a physical message (what the
/// Theorem 1 bounds govern).
std::uint64_t data_bytes(const cgm::Message& physical);

}  // namespace emcgm::routing
