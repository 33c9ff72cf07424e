// The src/ module graph has no cycles. Modules are ranked from the bottom
// of the stack to the top, and a file may include only its own module and
// modules ranked below it (DESIGN.md §3 lists the same order).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>

namespace connlab {
namespace {

namespace fs = std::filesystem;

constexpr std::string_view kModuleOrder[] = {
    "util",    "obs",    "mem",     "isa",   "vm",      "loader",
    "heap",    "dns",    "connman", "net",   "dbg",     "gadget",
    "exploit", "adapt",  "defense", "attack", "fuzz",   "fleet",
};

/// The module's rank, or -1 for a directory the order does not name.
int Rank(std::string_view module) {
  const auto* it =
      std::find(std::begin(kModuleOrder), std::end(kModuleOrder), module);
  return it == std::end(kModuleOrder)
             ? -1
             : static_cast<int>(it - std::begin(kModuleOrder));
}

const fs::path& SrcDir() {
  static const fs::path dir = fs::path(CONNLAB_SOURCE_DIR) / "src";
  return dir;
}

TEST(ModuleLayering, EveryModuleIsRanked) {
  int modules = 0;
  for (const fs::directory_entry& dir : fs::directory_iterator(SrcDir())) {
    if (!dir.is_directory()) continue;
    ++modules;
    EXPECT_NE(Rank(dir.path().filename().string()), -1)
        << dir.path() << " has no place in the module order";
  }
  EXPECT_EQ(modules, static_cast<int>(std::size(kModuleOrder)));
}

TEST(ModuleLayering, FilesIncludeOnlyLowerModules) {
  constexpr std::string_view kInclude = "#include \"src/";
  int files = 0;
  for (const fs::directory_entry& dir : fs::directory_iterator(SrcDir())) {
    if (!dir.is_directory()) continue;
    const std::string own = dir.path().filename().string();
    for (const fs::directory_entry& file : fs::directory_iterator(dir)) {
      ++files;
      std::ifstream in(file.path());
      std::string line;
      for (int n = 1; std::getline(in, line); ++n) {
        const std::size_t start = line.find_first_not_of(" \t");
        if (start == std::string::npos ||
            line.compare(start, kInclude.size(), kInclude) != 0) {
          continue;
        }
        const std::size_t from = start + kInclude.size();
        const std::string dep = line.substr(from, line.find('/', from) - from);
        EXPECT_TRUE(dep == own || (Rank(dep) >= 0 && Rank(dep) < Rank(own)))
            << "src/" << own << "/" << file.path().filename().string() << ":"
            << n << " includes src/" << dep << "/, which is not below "
            << own << " in the module order";
      }
    }
  }
  EXPECT_GT(files, 100) << "the walk did not find the source tree";
}

}  // namespace
}  // namespace connlab
