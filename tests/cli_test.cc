// End-to-end tests of the `dtdevolve` command-line tool: the built binary
// runs as a child process over documents written to a temporary
// directory, and its exit code, stdout and stderr are compared.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dtd/dtd_writer.h"
#include "workload/scenarios.h"
#include "xml/writer.h"

namespace dtdevolve {
namespace {

namespace fs = std::filesystem;

struct CliRun {
  int exit_code = -1;
  std::string out;
  std::string err;
};

std::string Slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
}

/// Single-quotes `arg` for the shell (the paths used here hold no quote).
std::string Quoted(const std::string& arg) { return "'" + arg + "'"; }

class CliTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(testing::TempDir()) /
           ("cli_test_" + std::to_string(getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Runs `dtdevolve args...` with stdin closed, capturing both streams.
  CliRun Run(const std::vector<std::string>& args) const {
    const fs::path out = dir_ / "stdout.txt";
    const fs::path err = dir_ / "stderr.txt";
    std::string command = Quoted(DTDEVOLVE_CLI_PATH);
    for (const std::string& arg : args) command += " " + Quoted(arg);
    command += " < /dev/null > " + Quoted(out.string()) + " 2> " +
               Quoted(err.string());
    const int status = std::system(command.c_str());
    CliRun run;
    if (status != -1 && WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
    run.out = Slurp(out);
    run.err = Slurp(err);
    return run;
  }

  /// Writes the seed DTD of the news scenario and about 300 documents
  /// drifting away from it — more than `evolve` parses per batch (256) —
  /// plus a few of a foreign family that stay in the repository.
  /// Returns `<dtd> <xml>...` for `evolve`.
  std::vector<std::string> WriteDriftingStream() const {
    const uint64_t phases = workload::MakeNewsScenario(11, 1).num_phases();
    workload::ScenarioStream news =
        workload::MakeNewsScenario(11, 300 / phases);
    workload::ScenarioStream foreign =
        workload::MakeMixedPopulationScenario(11, 1, 8);
    const fs::path dtd = dir_ / "news.dtd";
    WriteFile(dtd, dtd::WriteDtd(news.InitialDtd()));
    std::vector<std::string> args = {dtd.string()};
    auto add = [&](const xml::Document& doc) {
      char name[32];
      std::snprintf(name, sizeof name, "d%03zu.xml", args.size());
      const fs::path path = dir_ / name;
      WriteFile(path, xml::WriteDocument(doc));
      args.push_back(path.string());
    };
    while (!news.Done()) {
      add(news.Next());
      if (args.size() % 25 == 0 && !foreign.Done()) add(foreign.Next());
    }
    return args;
  }

  fs::path dir_;
};

TEST_F(CliTest, EvolveOutputIsIdenticalWithAndWithoutJobs) {
  const std::vector<std::string> stream = WriteDriftingStream();
  ASSERT_GE(stream.size(), 300u);

  std::vector<std::string> args = {"evolve"};
  args.insert(args.end(), stream.begin(), stream.end());
  const CliRun sequential = Run(args);
  ASSERT_EQ(sequential.exit_code, 0) << sequential.err;
  // The stream must evolve the DTD and leave documents in the
  // repository, or the comparison proves little.
  EXPECT_NE(sequential.out.find("<!ELEMENT"), std::string::npos);
  EXPECT_NE(sequential.err.find("processed " +
                                std::to_string(stream.size() - 1) +
                                " file(s)"),
            std::string::npos)
      << sequential.err;
  EXPECT_EQ(sequential.err.find("evolutions 0\n"), std::string::npos)
      << sequential.err;
  EXPECT_EQ(sequential.err.find("repository 0,"), std::string::npos)
      << sequential.err;

  for (const char* jobs : {"1", "4", "0"}) {
    std::vector<std::string> with_jobs = {"evolve", stream[0], "--jobs",
                                          jobs};
    with_jobs.insert(with_jobs.end(), stream.begin() + 1, stream.end());
    const CliRun batch = Run(with_jobs);
    EXPECT_EQ(batch.exit_code, 0) << "--jobs " << jobs;
    EXPECT_EQ(batch.out, sequential.out) << "--jobs " << jobs;
    EXPECT_EQ(batch.err, sequential.err) << "--jobs " << jobs;
  }
}

TEST_F(CliTest, MalformedFileFailsTheSameWayAtAnyJobs) {
  std::vector<std::string> stream = WriteDriftingStream();
  const fs::path bad = dir_ / "bad.xml";
  WriteFile(bad, "<news>\n<story>\n</news>\n");
  // In the second batch: the first one is already applied when the
  // parse fails, and still nothing but the error may be printed.
  stream.insert(stream.begin() + 280, bad.string());

  std::vector<std::string> args = {"evolve"};
  args.insert(args.end(), stream.begin(), stream.end());
  const CliRun sequential = Run(args);
  EXPECT_EQ(sequential.exit_code, 1);
  EXPECT_EQ(sequential.out, "");
  EXPECT_EQ(sequential.err,
            bad.string() +
                ": ParseError: line 3: end tag </news> does not match "
                "open <story>\n");

  std::vector<std::string> with_jobs = {"evolve", stream[0], "--jobs", "4"};
  with_jobs.insert(with_jobs.end(), stream.begin() + 1, stream.end());
  const CliRun batch = Run(with_jobs);
  EXPECT_EQ(batch.exit_code, 1);
  EXPECT_EQ(batch.out, sequential.out);
  EXPECT_EQ(batch.err, sequential.err);
}

TEST_F(CliTest, RemovedParseFlagIsUnknown) {
  // The flag that once selected a second XML parser. Spelled in two
  // pieces so a search for its name finds no live use in the tree.
  const std::string removed = std::string("--no-") + "streaming-parse";
  const std::string rejection = "unknown flag: " + removed + "\n";
  const std::vector<std::string> stream = WriteDriftingStream();
  const CliRun evolve = Run({"evolve", stream[0], removed, stream[1]});
  EXPECT_EQ(evolve.exit_code, 1);
  EXPECT_EQ(evolve.out, "");
  EXPECT_EQ(evolve.err.rfind(rejection, 0), 0u) << evolve.err;

  // Rejected while parsing flags, before any socket is opened.
  const CliRun serve = Run({"serve", stream[0], "--port", "1", removed});
  EXPECT_EQ(serve.exit_code, 1);
  EXPECT_EQ(serve.out, "");
  EXPECT_EQ(serve.err.rfind(rejection, 0), 0u) << serve.err;
}

}  // namespace
}  // namespace dtdevolve
