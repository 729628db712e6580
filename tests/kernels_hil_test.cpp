// The shipped kernels_hil/ files are copies of the in-code HIL sources:
// the Level 1 and rot files carry a one-line `#` provenance header in
// front of KernelSpec::hilSource(), and the gemv/ger/complex files are the
// module sources byte for byte.  These tests fail when the two drift, so
// an edit to either side must be made to both.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "kernels/complex_blas.h"
#include "kernels/level2.h"
#include "kernels/registry.h"

namespace ifko {
namespace {

std::string readHil(const std::string& name) {
  std::ifstream in(std::string(IFKO_KERNELS_HIL_DIR) + "/" + name + ".hil",
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << name << ".hil is missing";
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string dropCommentLines(const std::string& text) {
  std::istringstream in(text);
  std::string out, line;
  while (std::getline(in, line))
    if (line.empty() || line[0] != '#') out += line + "\n";
  return out;
}

/// Every shipped file other than the Level 1 and rot ones, by file name.
std::map<std::string, std::string> moduleSources() {
  std::map<std::string, std::string> out;
  for (ir::Scal prec : {ir::Scal::F32, ir::Scal::F64}) {
    const bool single = prec == ir::Scal::F32;
    out[single ? "sgemv" : "dgemv"] = kernels::gemvSource(prec);
    out[single ? "sger" : "dger"] = kernels::gerSource(prec);
    out[single ? "cscal" : "zscal"] = kernels::cscalSource(prec);
    out[single ? "caxpy" : "zaxpy"] = kernels::caxpySource(prec);
  }
  return out;
}

TEST(KernelsHil, Level1FilesMatchTheRegistryBelowTheirHeader) {
  for (const auto& spec : kernels::extendedKernels())
    EXPECT_EQ(dropCommentLines(readHil(spec.name())), spec.hilSource())
        << "kernels_hil/" << spec.name() << ".hil";
}

TEST(KernelsHil, Level2AndComplexFilesMatchTheirModulesByteForByte) {
  for (const auto& [name, source] : moduleSources())
    EXPECT_EQ(readHil(name), source) << "kernels_hil/" << name << ".hil";
}

TEST(KernelsHil, EveryShippedFileHasAnInCodeSource) {
  std::map<std::string, std::string> known = moduleSources();
  for (const auto& spec : kernels::extendedKernels())
    known[spec.name()] = spec.hilSource();
  int files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(IFKO_KERNELS_HIL_DIR)) {
    if (entry.path().extension() != ".hil") continue;
    ++files;
    EXPECT_TRUE(known.count(entry.path().stem().string()))
        << entry.path() << " has no in-code source";
  }
  EXPECT_EQ(files, static_cast<int>(known.size()));
}

}  // namespace
}  // namespace ifko
