#include <gtest/gtest.h>

#include <cstdio>

#include "campaign/report.hpp"
#include "common/error.hpp"
#include "common/file.hpp"

namespace fades::campaign {
namespace {

CampaignResult sampleResult() {
  CampaignResult r;
  r.spec.model = FaultModel::Pulse;
  r.spec.targets = TargetClass::CombinationalLut;
  r.spec.band = DurationBand::shortBand();
  r.add(Outcome::Failure, 0.25);
  r.add(Outcome::Silent, 0.30);
  r.add(Outcome::Silent, 0.35);
  r.add(Outcome::Latent, 0.20);
  r.records.push_back(
      ExperimentRecord{"lut:alu_result[3]", 120, 4.5, Outcome::Failure, 0.25});
  r.records.push_back(
      ExperimentRecord{"lut, with comma", 7, 1.0, Outcome::Silent, 0.30});
  return r;
}

TEST(Report, MarkdownContainsAllColumns) {
  const auto md = toMarkdown("Demo", {{"pulse ALU", sampleResult()}});
  EXPECT_NE(md.find("## Demo"), std::string::npos);
  EXPECT_NE(md.find("| pulse ALU | 4 | 1 | 1 | 2 |"), std::string::npos);
  EXPECT_NE(md.find("25.00"), std::string::npos);  // failure %
  EXPECT_NE(md.find("0.275"), std::string::npos);  // mean seconds
}

TEST(Report, CsvRoundableFields) {
  const auto csv = toCsv({{"c1", sampleResult()}});
  EXPECT_NE(csv.find("campaign,model,targets,band"), std::string::npos);
  EXPECT_NE(csv.find("c1,pulse,LUTs,1-10,4,1,1,2,"), std::string::npos);
}

TEST(Report, CsvQuotesCommasInLabels) {
  const auto csv = toCsv({{"a,b", sampleResult()}});
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
}

TEST(Report, CsvQuotesQuotesInLabels) {
  // RFC 4180: embedded quotes force quoting and are doubled.
  const auto csv = toCsv({{"the \"fast\" path", sampleResult()}});
  EXPECT_NE(csv.find("\"the \"\"fast\"\" path\""), std::string::npos);
}

TEST(Report, RecordsCsvQuotesCommasAndQuotes) {
  auto r = sampleResult();
  r.records.push_back(ExperimentRecord{"line \"q\", comma", 3, 2.0,
                                       Outcome::Latent, 0.11});
  const auto csv = recordsToCsv(r);
  EXPECT_NE(csv.find("\"line \"\"q\"\", comma\",,3,"), std::string::npos);
}

TEST(Report, RecordsCsvListsEveryExperiment) {
  const auto csv = recordsToCsv(sampleResult());
  EXPECT_NE(csv.find("lut:alu_result[3],,120,4.500,failure,0.250000,-1,-1,-1"),
            std::string::npos);
  EXPECT_NE(csv.find("\"lut, with comma\""), std::string::npos);
}

TEST(Report, RecordsCsvCarriesAttributionColumns) {
  auto r = sampleResult();
  r.records[0].component = "alu";
  r.records[0].pc = 0x12;
  r.records[0].opcode = 0x28;
  r.records[0].detectCycle = 130;
  const auto csv = recordsToCsv(r);
  EXPECT_NE(csv.find("target,component,inject_cycle,duration_cycles,outcome,"
                     "seconds,pc,opcode,detect_cycle"),
            std::string::npos);
  EXPECT_NE(csv.find("lut:alu_result[3],alu,120,4.500,failure,0.250000,18,40,"
                     "130"),
            std::string::npos);
}

TEST(Report, RenderCsvQuotesEveryFieldThroughOneImplementation) {
  const auto csv = renderCsv({"a", "b,c"}, {{"plain", "has \"q\""}});
  EXPECT_EQ(csv, "a,\"b,c\"\nplain,\"has \"\"q\"\"\"\n");
}

TEST(Report, RenderMarkdownTablePipes) {
  const auto md = renderMarkdownTable({"x", "y"}, {{"1", "2"}, {"3", "4"}});
  EXPECT_EQ(md, "| x | y |\n|---|---|\n| 1 | 2 |\n| 3 | 4 |\n");
}

TEST(Report, RecordsCsvRequiresRecords) {
  CampaignResult empty;
  empty.add(Outcome::Silent, 0.1);
  EXPECT_THROW(recordsToCsv(empty), common::FadesError);
}

TEST(Report, WriteTextFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/fades_report.md";
  common::writeFile(path, "hello report\n");
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[32] = {};
  const auto n = std::fread(buf, 1, sizeof buf, f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(buf, n), "hello report\n");
}

}  // namespace
}  // namespace fades::campaign
