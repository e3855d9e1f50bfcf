/**
 * @file
 * The run-document contract shared by StatsExport, TelemetrySink and
 * SpanSink (sim/run_document.hh): thread binding, absorb order and
 * "gather<N>" numbering, the probe-open, write-once and reset. Each
 * document's own schema is tested next to its Run type.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/json_lite.hh"
#include "sim/span.hh"
#include "sim/stats_export.hh"
#include "sim/telemetry.hh"

using namespace netsparse;

namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

bool
exists(const std::string &path)
{
    return static_cast<bool>(std::ifstream(path));
}

template <typename Doc>
std::vector<std::string>
labels(const Doc &doc)
{
    const jsonlite::Value parsed = jsonlite::parse(doc.toJson());
    std::vector<std::string> out;
    for (const jsonlite::Value &run : parsed.at("runs").array)
        out.push_back(run.at("label").string);
    return out;
}

template <typename Doc>
class RunDocumentTest : public ::testing::Test
{
  protected:
    /** A per-test path under the gtest temp dir, removed afterwards. */
    std::string
    tempPath(const char *tag)
    {
        paths_.push_back(std::string(::testing::TempDir()) +
                         "netsparse_run_document_" +
                         RunFormat<typename Doc::Run>::schema + "_" + tag +
                         ".json");
        std::remove(paths_.back().c_str());
        return paths_.back();
    }

    ~RunDocumentTest() override
    {
        for (const std::string &p : paths_)
            std::remove(p.c_str());
    }

  private:
    std::vector<std::string> paths_;
};

using Documents = ::testing::Types<StatsExport, TelemetrySink, SpanSink>;
TYPED_TEST_SUITE(RunDocumentTest, Documents);

TYPED_TEST(RunDocumentTest, BindNestsAndRestoresPerThread)
{
    TypeParam &global = TypeParam::global();
    EXPECT_EQ(&TypeParam::instance(), &global);
    {
        TypeParam outer;
        typename TypeParam::Bind outerBind(outer);
        EXPECT_EQ(&TypeParam::instance(), &outer);
        {
            TypeParam inner;
            typename TypeParam::Bind innerBind(inner);
            EXPECT_EQ(&TypeParam::instance(), &inner);
        }
        EXPECT_EQ(&TypeParam::instance(), &outer);

        // The binding is per thread: another thread sees the global.
        TypeParam *seen = nullptr;
        std::thread([&] { seen = &TypeParam::instance(); }).join();
        EXPECT_EQ(seen, &global);
    }
    EXPECT_EQ(&TypeParam::instance(), &global);
}

TYPED_TEST(RunDocumentTest, AbsorbAppendsRunsInOrderAndRenumbers)
{
    TypeParam merged, point;
    merged.setCollect(true);
    point.setCollect(true);
    merged.beginRun();
    merged.beginRun("warmup");
    point.beginRun("p0");
    point.beginRun();
    EXPECT_EQ(labels(point), (std::vector<std::string>{"p0", "gather1"}));

    merged.absorb(std::move(point));
    EXPECT_EQ(merged.numRuns(), 4u);
    EXPECT_EQ(point.numRuns(), 0u);
    EXPECT_TRUE(point.enabled());
    // Unlabelled runs number by final document position, so a parallel
    // sweep's merged document matches a sequential one.
    EXPECT_EQ(labels(merged), (std::vector<std::string>{
                                  "gather0", "warmup", "p0", "gather3"}));
}

TYPED_TEST(RunDocumentTest, SetOutputPathProbesWithoutTruncating)
{
    TypeParam bad;
    EXPECT_FALSE(bad.setOutputPath("/nonexistent-dir/netsparse/out.json"));
    EXPECT_FALSE(bad.enabled());

    const std::string path = this->tempPath("probe");
    {
        std::ofstream(path) << "earlier";
    }
    TypeParam good;
    ASSERT_TRUE(good.setOutputPath(path));
    EXPECT_TRUE(good.enabled());
    EXPECT_EQ(slurp(path), "earlier"); // written only by writeFile()
}

TYPED_TEST(RunDocumentTest, WriteFileWritesOncePerChange)
{
    const std::string path = this->tempPath("write");
    TypeParam doc;
    ASSERT_TRUE(doc.setOutputPath(path));
    doc.beginRun();
    doc.writeFile();
    jsonlite::Value written = jsonlite::parse(slurp(path));
    EXPECT_EQ(written.at("schema").string,
              RunFormat<typename TypeParam::Run>::schema);
    EXPECT_EQ(written.at("runs").array.size(), 1u);

    // Nothing changed since: a second writeFile() (the atexit one after
    // an explicit write) does not touch the file.
    std::remove(path.c_str());
    doc.writeFile();
    EXPECT_FALSE(exists(path));

    doc.beginRun();
    doc.writeFile();
    EXPECT_EQ(jsonlite::parse(slurp(path)).at("runs").array.size(), 2u);
}

TYPED_TEST(RunDocumentTest, ResetDropsRunsAndDisables)
{
    const std::string path = this->tempPath("reset");
    TypeParam doc;
    ASSERT_TRUE(doc.setOutputPath(path));
    doc.setCollect(true);
    doc.beginRun();
    doc.reset();
    EXPECT_EQ(doc.numRuns(), 0u);
    EXPECT_FALSE(doc.enabled());
    doc.writeFile(); // no path any more
    EXPECT_EQ(slurp(path), "");
    EXPECT_TRUE(jsonlite::parse(doc.toJson()).at("runs").array.empty());
}

} // namespace
