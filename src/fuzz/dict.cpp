#include "src/fuzz/dict.hpp"

#include <fstream>
#include <sstream>

namespace connlab::fuzz {

namespace {

/// Decodes the quoted section of a dictionary line; `line` must hold the
/// opening quote at `begin`.
util::Result<util::Bytes> DecodeQuoted(const std::string& line,
                                       std::size_t begin) {
  util::Bytes token;
  std::size_t i = begin + 1;
  while (i < line.size() && line[i] != '"') {
    char c = line[i];
    if (c == '\\') {
      if (i + 1 >= line.size()) {
        return util::InvalidArgument("dictionary: dangling escape: " + line);
      }
      const char esc = line[i + 1];
      if (esc == 'x' || esc == 'X') {
        if (i + 3 >= line.size()) {
          return util::InvalidArgument("dictionary: short \\x escape: " + line);
        }
        const util::Result<util::Bytes> byte =
            util::FromHex(std::string_view(line).substr(i + 2, 2));
        if (!byte.ok()) {
          return util::InvalidArgument("dictionary: bad \\x escape: " + line);
        }
        token.push_back(byte.value()[0]);
        i += 4;
        continue;
      }
      if (esc == '\\' || esc == '"') {
        token.push_back(static_cast<std::uint8_t>(esc));
        i += 2;
        continue;
      }
      return util::InvalidArgument("dictionary: unknown escape: " + line);
    }
    token.push_back(static_cast<std::uint8_t>(c));
    ++i;
  }
  if (i >= line.size()) {
    return util::InvalidArgument("dictionary: unterminated quote: " + line);
  }
  if (token.empty()) {
    return util::InvalidArgument("dictionary: empty token: " + line);
  }
  return token;
}

}  // namespace

util::Result<std::vector<util::Bytes>> ParseDictionary(
    const std::string& text) {
  std::vector<util::Bytes> tokens;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    // Trim leading whitespace; skip blanks and comments.
    std::size_t begin = 0;
    while (begin < line.size() &&
           (line[begin] == ' ' || line[begin] == '\t' || line[begin] == '\r')) {
      ++begin;
    }
    if (begin >= line.size() || line[begin] == '#') continue;
    // Either `name="..."` or a bare `"..."`.
    const std::size_t quote = line.find('"', begin);
    if (quote == std::string::npos) {
      return util::InvalidArgument("dictionary: no quoted token: " + line);
    }
    CONNLAB_ASSIGN_OR_RETURN(util::Bytes token, DecodeQuoted(line, quote));
    tokens.push_back(std::move(token));
  }
  return tokens;
}

util::Result<std::vector<util::Bytes>> LoadDictionaryFile(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::NotFound("dictionary file not found: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return ParseDictionary(text.str());
}

std::vector<util::Bytes> DefaultDnsDictionary() {
  std::vector<util::Bytes> tokens;
  tokens.push_back({0xC0, 0x0C});              // pointer to the question name
  tokens.push_back({0xC0, 0x00});              // pointer to the header
  tokens.push_back({0x3F});                    // max label length
  tokens.push_back({0x00, 0x01, 0x00, 0x01});  // type A / class IN
  tokens.push_back({0x00, 0x00, 0x00, 0x04});  // rdlength 4
  // The RR-type words the record layer speaks: splicing one next to a
  // class/rdlength word flips an answer into a decoder path (CNAME chains,
  // SOA's seven fields, MX's preference word) the havoc loop rarely forms.
  tokens.push_back({0x00, 0x05});              // type CNAME
  tokens.push_back({0x00, 0x06});              // type SOA
  tokens.push_back({0x00, 0x0C});              // type PTR
  tokens.push_back({0x00, 0x0F});              // type MX
  tokens.push_back({0x00, 0x10});              // type TXT
  util::Bytes run;                             // a ready-made 8-byte label
  run.push_back(0x08);
  for (int i = 0; i < 8; ++i) run.push_back(0x61);
  tokens.push_back(std::move(run));
  return tokens;
}

}  // namespace connlab::fuzz
