/**
 * @file
 * A scratch directory for tests that write files: `<name>.<pid>` under
 * the gtest temp root, created empty and removed, with everything in
 * it, when the owner goes out of scope — so a test run leaves nothing
 * behind, and two copies of one binary running at once never share a
 * directory.
 */

#ifndef FO4_TESTS_SCRATCH_DIR_HH
#define FO4_TESTS_SCRATCH_DIR_HH

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace fo4::tests
{

class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &name)
        : dir(std::string(::testing::TempDir()) + "/" + name + "." +
              std::to_string(::getpid()))
    {
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
    }

    ~ScratchDir()
    {
        std::error_code ignored;
        std::filesystem::remove_all(dir, ignored);
    }

    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string &path() const { return dir; }

    /** `leaf` inside the directory. */
    std::string file(const std::string &leaf) const
    {
        return dir + "/" + leaf;
    }

  private:
    std::string dir;
};

} // namespace fo4::tests

#endif // FO4_TESTS_SCRATCH_DIR_HH
