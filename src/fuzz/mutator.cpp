#include "src/fuzz/mutator.hpp"

#include <algorithm>

#include "src/dns/name.hpp"

namespace connlab::fuzz {

namespace {

constexpr std::uint8_t kFiller = 0x41;

/// Tolerant label walk, mirroring the vulnerable parser's view of the
/// bytes: stops at the terminator, the first compression pointer, or the
/// end of the packet.
struct LabelWalk {
  enum class End : std::uint8_t { kTerminator, kPointer, kRanOff };
  struct Label {
    std::size_t pos = 0;  // offset of the length byte
    std::uint8_t len = 0;
  };
  std::vector<Label> labels;
  std::size_t end_pos = 0;  // offset of the terminator/pointer/end
  End end = End::kRanOff;
};

LabelWalk WalkLabels(util::ByteSpan input, std::size_t start) {
  LabelWalk walk;
  std::size_t pos = start;
  while (pos < input.size()) {
    const std::uint8_t len = input[pos];
    if (len == 0) {
      walk.end = LabelWalk::End::kTerminator;
      walk.end_pos = pos;
      return walk;
    }
    if ((len & dns::kCompressionFlags) != 0) {
      walk.end = LabelWalk::End::kPointer;
      walk.end_pos = pos;
      return walk;
    }
    if (pos + 1 + len > input.size() || walk.labels.size() >= 512) break;
    walk.labels.push_back({pos, len});
    pos += 1 + static_cast<std::size_t>(len);
  }
  walk.end = LabelWalk::End::kRanOff;
  walk.end_pos = std::min(pos, input.size());
  return walk;
}

}  // namespace

// Each structural operator computes its label walk against the pre-edit
// bytes, draws from the Rng, then edits `data` directly.

void Mutator::GrowLabel(util::Bytes& data, std::size_t start,
                        util::Rng& rng) {
  const LabelWalk walk = WalkLabels(data, start);
  if (walk.labels.empty()) return;
  const auto& label = walk.labels[rng.NextBelow(walk.labels.size())];
  if (label.len >= dns::kMaxLabelLen) return;
  // Biased toward the 0x3f boundary: half the draws go straight to 63.
  const std::uint8_t new_len =
      rng.NextBool(0.5)
          ? static_cast<std::uint8_t>(dns::kMaxLabelLen)
          : static_cast<std::uint8_t>(rng.NextInRange(
                label.len + 1, dns::kMaxLabelLen));
  data[label.pos] = new_len;
  data.insert(
      data.begin() + static_cast<std::ptrdiff_t>(label.pos + 1 + label.len),
      static_cast<std::size_t>(new_len - label.len), kFiller);
}

void Mutator::DuplicateLabelRun(util::Bytes& data, std::size_t start,
                                util::Rng& rng, util::Bytes& scratch) {
  const LabelWalk walk = WalkLabels(data, start);
  if (walk.labels.empty()) return;
  const std::size_t first = rng.NextBelow(walk.labels.size());
  const std::size_t last = std::min(
      walk.labels.size() - 1, first + rng.NextBelow(4));
  const std::size_t run_begin = walk.labels[first].pos;
  const std::size_t run_end =
      walk.labels[last].pos + 1 + walk.labels[last].len;
  scratch.assign(data.begin() + static_cast<std::ptrdiff_t>(run_begin),
                 data.begin() + static_cast<std::ptrdiff_t>(run_end));
  const std::size_t repeats = 1 + rng.NextBelow(4);
  for (std::size_t r = 0; r < repeats; ++r) {
    data.insert(data.begin() + static_cast<std::ptrdiff_t>(run_end),
                scratch.begin(), scratch.end());
  }
}

void Mutator::PlantCompressionPointer(util::Bytes& data, std::size_t start,
                                      util::Rng& rng) {
  const LabelWalk walk = WalkLabels(data, start);
  if (walk.end_pos >= data.size() && walk.end != LabelWalk::End::kRanOff) {
    return;
  }
  // Target: the name's own start (re-expansion bomb), the question name at
  // offset 12, or an arbitrary earlier offset.
  std::size_t target;
  switch (rng.NextBelow(3)) {
    case 0: target = start; break;
    case 1: target = 12; break;
    default: target = rng.NextBelow(std::max<std::size_t>(walk.end_pos, 1));
  }
  target &= 0x3FFF;
  const std::uint8_t hi = static_cast<std::uint8_t>(
      dns::kCompressionFlags | ((target >> 8) & 0x3F));
  const std::uint8_t lo = static_cast<std::uint8_t>(target & 0xFF);
  const std::size_t at = walk.end_pos;
  if (at >= data.size()) {
    data.push_back(hi);
    data.push_back(lo);
  } else {
    // Replace the terminator (or pointer) byte with the 2-byte pointer.
    data[at] = hi;
    data.insert(data.begin() + static_cast<std::ptrdiff_t>(at + 1), lo);
  }
}

void Mutator::BumpAnswerCount(util::Bytes& data, util::Rng& rng) {
  if (data.size() < 8) return;
  const std::uint16_t current =
      static_cast<std::uint16_t>((data[6] << 8) | data[7]);
  const std::uint16_t next =
      rng.NextBool(0.5) ? static_cast<std::uint16_t>(1 + rng.NextBelow(8))
                        : static_cast<std::uint16_t>(current + 1);
  data[6] = static_cast<std::uint8_t>(next >> 8);
  data[7] = static_cast<std::uint8_t>(next & 0xFF);
}

void Mutator::DnsOnce(util::Bytes& data, const MutationHint& hint) {
  const std::size_t start = hint.fixed_prefix;
  if (data.size() <= start) return;
  switch (rng_.NextBelow(5)) {
    case 0: GrowLabel(data, start, rng_); return;
    case 1:
    case 2: DuplicateLabelRun(data, start, rng_, chunk_); return;
    case 3: PlantCompressionPointer(data, start, rng_); return;
    default: BumpAnswerCount(data, rng_); return;
  }
}

void Mutator::HavocOnce(util::Bytes& data, const MutationHint& hint,
                        util::ByteSpan splice_donor) {
  static constexpr std::uint8_t kInteresting[] = {0x00, 0x01, 0x3F, 0x40,
                                                  0x7F, 0x80, 0xC0, 0xFF};
  const std::size_t lo = hint.fixed_prefix;
  if (data.size() <= lo) {
    data.push_back(kFiller);
    return;
  }
  const std::size_t span = data.size() - lo;
  // The two dictionary operators only enter the op table when a dictionary
  // is supplied, so dictionary-less campaigns draw the same RNG sequence as
  // before the feature existed.
  const bool dict =
      hint.dictionary != nullptr && !hint.dictionary->empty();
  switch (rng_.NextBelow(dict ? 10 : 8)) {
    case 0: {  // flip one bit
      const std::size_t at = lo + rng_.NextBelow(span);
      data[at] ^= static_cast<std::uint8_t>(1u << rng_.NextBelow(8));
      break;
    }
    case 1: {  // random byte
      data[lo + rng_.NextBelow(span)] =
          static_cast<std::uint8_t>(rng_.NextBelow(256));
      break;
    }
    case 2: {  // interesting byte (label-length boundaries, pointer marker)
      data[lo + rng_.NextBelow(span)] =
          kInteresting[rng_.NextBelow(sizeof(kInteresting))];
      break;
    }
    case 3: {  // delete a chunk
      const std::size_t at = lo + rng_.NextBelow(span);
      const std::size_t len = std::min(data.size() - at,
                                       1 + rng_.NextBelow(32));
      data.erase(data.begin() + static_cast<std::ptrdiff_t>(at),
                 data.begin() + static_cast<std::ptrdiff_t>(at + len));
      break;
    }
    case 4: {  // duplicate a chunk in place
      const std::size_t at = lo + rng_.NextBelow(span);
      const std::size_t len = std::min(data.size() - at,
                                       1 + rng_.NextBelow(64));
      chunk_.assign(data.begin() + static_cast<std::ptrdiff_t>(at),
                    data.begin() + static_cast<std::ptrdiff_t>(at + len));
      data.insert(data.begin() + static_cast<std::ptrdiff_t>(at + len),
                  chunk_.begin(), chunk_.end());
      break;
    }
    case 5: {  // append filler (pushes expansions longer)
      const std::size_t len = 1 + rng_.NextBelow(64);
      data.insert(data.end(), len, kFiller);
      break;
    }
    case 6: {  // truncate the tail
      const std::size_t keep = lo + rng_.NextBelow(span + 1);
      data.resize(std::max(keep, lo + 1));
      break;
    }
    case 7: {  // splice with a donor entry
      if (splice_donor.size() > lo) {
        const std::size_t cut_a = lo + rng_.NextBelow(span);
        const std::size_t cut_d = lo + rng_.NextBelow(splice_donor.size() - lo);
        data.resize(cut_a);
        data.insert(data.end(),
                    splice_donor.begin() + static_cast<std::ptrdiff_t>(cut_d),
                    splice_donor.end());
      } else {
        data[lo + rng_.NextBelow(span)] ^= 0xFF;
      }
      break;
    }
    case 8: {  // insert a dictionary token
      const util::Bytes& token =
          (*hint.dictionary)[rng_.NextBelow(hint.dictionary->size())];
      const std::size_t at = lo + rng_.NextBelow(span + 1);
      data.insert(data.begin() + static_cast<std::ptrdiff_t>(at),
                  token.begin(), token.end());
      break;
    }
    default: {  // overwrite with a dictionary token
      const util::Bytes& token =
          (*hint.dictionary)[rng_.NextBelow(hint.dictionary->size())];
      const std::size_t at = lo + rng_.NextBelow(span);
      const std::size_t len = std::min(token.size(), data.size() - at);
      std::copy(token.begin(),
                token.begin() + static_cast<std::ptrdiff_t>(len),
                data.begin() + static_cast<std::ptrdiff_t>(at));
      break;
    }
  }
}

void Mutator::MutateInto(util::ByteSpan input, const MutationHint& hint,
                         util::ByteSpan splice_donor, util::Bytes& out) {
  out.assign(input.begin(), input.end());
  if (out.size() < hint.fixed_prefix) return;  // malformed seed
  const std::size_t rounds = 1 + rng_.NextBelow(4);
  for (std::size_t r = 0; r < rounds; ++r) {
    if (hint.dns && rng_.NextBool(0.6)) {
      DnsOnce(out, hint);
    } else {
      HavocOnce(out, hint, splice_donor);
    }
    if (out.size() > hint.max_size) out.resize(hint.max_size);
  }
}

}  // namespace connlab::fuzz
