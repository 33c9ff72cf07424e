#include "src/fuzz/corpus.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>

namespace connlab::fuzz {

namespace {
std::uint64_t Fnv1a(util::ByteSpan data) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : data) h = (h ^ b) * 0x100000001b3ULL;
  return h;
}
}  // namespace

bool Corpus::Add(util::Bytes data, int news, std::uint64_t found_at) {
  const std::uint64_t h = Fnv1a(data);
  for (std::size_t i = 0; i < hashes_.size(); ++i) {
    if (hashes_[i] == h && entries_[i].data == data) return false;
  }
  hashes_.push_back(h);
  entries_.push_back({std::move(data), news, found_at, 0});
  return true;
}

std::uint64_t Corpus::WeightOf(std::size_t i) const {
  const CorpusEntry& e = entries_[i];
  std::uint64_t w = e.news >= 2 ? 8 : 4;
  if (e.data.size() <= 256) w *= 2;
  // Staleness decay: every 8 picks halves the weight, floor 1.
  w >>= std::min<std::uint64_t>(e.picks / 8, 3);
  return std::max<std::uint64_t>(w, 1);
}

std::size_t Corpus::PickIndex(util::Rng& rng) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) total += WeightOf(i);
  std::uint64_t roll = rng.NextBelow(total);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const std::uint64_t w = WeightOf(i);
    if (roll < w) {
      ++entries_[i].picks;
      return i;
    }
    roll -= w;
  }
  ++entries_.back().picks;
  return entries_.size() - 1;
}

std::uint32_t Corpus::EnergyFor(std::size_t i) const {
  const CorpusEntry& e = entries_[i];
  std::uint32_t energy = e.news >= 2 ? 32 : 16;
  if (e.data.size() > 2048) energy /= 2;
  return energy;
}

namespace {

constexpr std::string_view kCorpusMagic = "connlab-corpus v1";

}  // namespace

std::string SerializeCorpus(const Corpus& corpus) {
  std::string out(kCorpusMagic);
  out += '\n';
  char line[96];
  for (const CorpusEntry& e : corpus.entries()) {
    std::snprintf(line, sizeof(line), "entry news=%d found_at=%llu size=%zu\n",
                  e.news, static_cast<unsigned long long>(e.found_at),
                  e.data.size());
    out += line;
    out += util::ToHex(e.data);
    out += '\n';
  }
  return out;
}

util::Result<Corpus> DeserializeCorpus(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kCorpusMagic) {
    return util::InvalidArgument("corpus file: bad or missing header");
  }
  Corpus corpus;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    int news = 0;
    unsigned long long found_at = 0;
    std::size_t size = 0;
    if (std::sscanf(line.c_str(), "entry news=%d found_at=%llu size=%zu",
                    &news, &found_at, &size) != 3) {
      return util::InvalidArgument("corpus file: bad entry line: " + line);
    }
    // `size` comes from the file: compare without multiplying, so a huge
    // size cannot wrap to match a short payload line.
    std::string hex;
    if (!std::getline(in, hex) || hex.size() % 2 != 0 ||
        hex.size() / 2 != size) {
      return util::InvalidArgument("corpus file: truncated entry payload");
    }
    util::Result<util::Bytes> data = util::FromHex(hex);
    if (!data.ok()) {
      return util::InvalidArgument("corpus file: bad hex payload");
    }
    corpus.Add(std::move(data).value(), news, found_at);
  }
  return corpus;
}

util::Status SaveCorpus(const Corpus& corpus, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return util::Internal("cannot open corpus file for write: " + path);
  const std::string text = SerializeCorpus(corpus);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) return util::Internal("short write to corpus file: " + path);
  return util::OkStatus();
}

util::Result<Corpus> LoadCorpus(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::NotFound("corpus file not found: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return DeserializeCorpus(text.str());
}

}  // namespace connlab::fuzz
