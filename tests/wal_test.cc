#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <thread>

#include "common/file_util.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace ivdb {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "wal_test_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Path of segment `seqno` (tests may poke segment files directly; engine
  // code outside src/wal/ must not).
  std::string SegPath(uint64_t seqno) const {
    return dir_ + "/" + LogManager::SegmentFileName(seqno);
  }

  std::string dir_;
};

LogRecord DataRecord(TxnId txn, LogRecordType type, const std::string& key) {
  LogRecord rec;
  rec.type = type;
  rec.txn_id = txn;
  rec.object_id = 5;
  rec.key = key;
  rec.before = "before";
  rec.after = "after";
  return rec;
}

TEST(LogRecordCodec, RoundTripAllTypes) {
  for (LogRecordType type :
       {LogRecordType::kBegin, LogRecordType::kCommit, LogRecordType::kAbort,
        LogRecordType::kEnd, LogRecordType::kInsert, LogRecordType::kDelete,
        LogRecordType::kUpdate, LogRecordType::kIncrement, LogRecordType::kClr,
        LogRecordType::kBeginCheckpoint, LogRecordType::kEndCheckpoint}) {
    LogRecord rec;
    rec.lsn = 42;
    rec.prev_lsn = 41;
    rec.txn_id = 7;
    rec.type = type;
    rec.system_txn = true;
    rec.object_id = 3;
    rec.key = "the-key";
    rec.before = "old";
    rec.after = "new";
    rec.deltas = {{1, Value::Int64(5)}, {2, Value::Double(-1.5)}};
    rec.clr_op = LogRecordType::kIncrement;
    rec.undo_next_lsn = 40;
    rec.timestamp = 1234;

    std::string buf;
    rec.EncodeTo(&buf);
    LogRecord out;
    ASSERT_TRUE(LogRecord::DecodeFrom(buf, &out).ok())
        << LogRecordTypeName(type);
    EXPECT_EQ(out.lsn, rec.lsn);
    EXPECT_EQ(out.prev_lsn, rec.prev_lsn);
    EXPECT_EQ(out.txn_id, rec.txn_id);
    EXPECT_EQ(out.type, rec.type);
    EXPECT_EQ(out.system_txn, rec.system_txn);
    EXPECT_EQ(out.object_id, rec.object_id);
    EXPECT_EQ(out.key, rec.key);
    EXPECT_EQ(out.before, rec.before);
    EXPECT_EQ(out.after, rec.after);
    ASSERT_EQ(out.deltas.size(), 2u);
    EXPECT_TRUE(out.deltas[0] == rec.deltas[0]);
    EXPECT_TRUE(out.deltas[1] == rec.deltas[1]);
    EXPECT_EQ(out.clr_op, rec.clr_op);
    EXPECT_EQ(out.undo_next_lsn, rec.undo_next_lsn);
    EXPECT_EQ(out.timestamp, rec.timestamp);
  }
}

TEST(LogRecordCodec, TruncatedFails) {
  LogRecord rec = DataRecord(1, LogRecordType::kUpdate, "k");
  std::string buf;
  rec.EncodeTo(&buf);
  for (size_t cut : {size_t{0}, size_t{1}, buf.size() / 2, buf.size() - 1}) {
    LogRecord out;
    EXPECT_FALSE(
        LogRecord::DecodeFrom(Slice(buf.data(), cut), &out).ok())
        << cut;
  }
}

TEST(LogRecordCodec, ToStringMentionsType) {
  LogRecord rec = DataRecord(9, LogRecordType::kIncrement, "k");
  rec.deltas = {{3, Value::Int64(-2)}};
  std::string s = rec.ToString();
  EXPECT_NE(s.find("INCREMENT"), std::string::npos);
  EXPECT_NE(s.find("txn=9"), std::string::npos);
}

TEST(MakeCompensationTest, InverseOps) {
  LogRecord ins = DataRecord(1, LogRecordType::kInsert, "k");
  ins.prev_lsn = 10;
  LogRecord clr = MakeCompensation(ins);
  EXPECT_EQ(clr.type, LogRecordType::kClr);
  EXPECT_EQ(clr.clr_op, LogRecordType::kDelete);
  EXPECT_EQ(clr.undo_next_lsn, 10u);
  EXPECT_EQ(clr.key, "k");

  LogRecord del = DataRecord(1, LogRecordType::kDelete, "k");
  clr = MakeCompensation(del);
  EXPECT_EQ(clr.clr_op, LogRecordType::kInsert);
  EXPECT_EQ(clr.after, "before");

  LogRecord upd = DataRecord(1, LogRecordType::kUpdate, "k");
  clr = MakeCompensation(upd);
  EXPECT_EQ(clr.clr_op, LogRecordType::kUpdate);
  EXPECT_EQ(clr.before, "after");
  EXPECT_EQ(clr.after, "before");

  LogRecord inc = DataRecord(1, LogRecordType::kIncrement, "k");
  inc.deltas = {{2, Value::Int64(5)}, {3, Value::Double(1.5)}};
  clr = MakeCompensation(inc);
  EXPECT_EQ(clr.clr_op, LogRecordType::kIncrement);
  ASSERT_EQ(clr.deltas.size(), 2u);
  EXPECT_EQ(clr.deltas[0].delta.AsInt64(), -5);
  EXPECT_EQ(clr.deltas[1].delta.AsDouble(), -1.5);
}

TEST(SegmentNaming, FileNameFormat) {
  EXPECT_EQ(LogManager::SegmentFileName(1), "wal-000001.log");
  EXPECT_EQ(LogManager::SegmentFileName(123456), "wal-123456.log");
  EXPECT_EQ(LogManager::SegmentFileName(10000000), "wal-10000000.log");
}

TEST_F(WalTest, AppendAssignsMonotonicLsns) {
  LogManager log({dir_});
  ASSERT_TRUE(log.Open().ok());
  Lsn prev = 0;
  for (int i = 0; i < 100; i++) {
    LogRecord rec = DataRecord(1, LogRecordType::kInsert, "k");
    ASSERT_TRUE(log.Append(&rec).ok());
    EXPECT_GT(rec.lsn, prev);
    prev = rec.lsn;
  }
  EXPECT_EQ(log.last_lsn(), prev);
}

TEST_F(WalTest, FlushMakesRecordsReadable) {
  LogManager log({dir_});
  ASSERT_TRUE(log.Open().ok());
  for (int i = 0; i < 10; i++) {
    LogRecord rec = DataRecord(1, LogRecordType::kInsert,
                               "k" + std::to_string(i));
    ASSERT_TRUE(log.Append(&rec).ok());
  }
  ASSERT_TRUE(log.Flush(log.last_lsn()).ok());
  EXPECT_EQ(log.flushed_lsn(), log.last_lsn());

  std::vector<LogRecord> records;
  ASSERT_TRUE(LogManager::ReadLog(dir_, &records).ok());
  ASSERT_EQ(records.size(), 10u);
  for (int i = 0; i < 10; i++) {
    EXPECT_EQ(records[i].key, "k" + std::to_string(i));
    EXPECT_EQ(records[i].lsn, static_cast<Lsn>(i + 1));
  }
}

TEST_F(WalTest, UnflushedRecordsAreLostAcrossReopen) {
  {
    LogManager log({dir_});
    ASSERT_TRUE(log.Open().ok());
    LogRecord a = DataRecord(1, LogRecordType::kInsert, "durable");
    ASSERT_TRUE(log.Append(&a).ok());
    ASSERT_TRUE(log.Flush(a.lsn).ok());
    LogRecord b = DataRecord(1, LogRecordType::kInsert, "buffered-only");
    ASSERT_TRUE(log.Append(&b).ok());
    // Destroyed without flushing b — simulated crash.
  }
  std::vector<LogRecord> records;
  ASSERT_TRUE(LogManager::ReadLog(dir_, &records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, "durable");
}

TEST_F(WalTest, ReadLogToleratesTornTailOnNewestSegment) {
  {
    LogManager log({dir_});
    ASSERT_TRUE(log.Open().ok());
    for (int i = 0; i < 5; i++) {
      LogRecord rec = DataRecord(1, LogRecordType::kInsert,
                                 "k" + std::to_string(i));
      ASSERT_TRUE(log.Append(&rec).ok());
    }
    ASSERT_TRUE(log.Flush(log.last_lsn()).ok());
  }
  // Tear the (only, hence newest) segment mid-record.
  std::string contents;
  ASSERT_TRUE(ReadFileToString(SegPath(1), &contents).ok());
  std::string torn = contents.substr(0, contents.size() - 7);
  ASSERT_TRUE(WriteStringToFileAtomic(SegPath(1), torn).ok());

  std::vector<LogRecord> records;
  ASSERT_TRUE(LogManager::ReadLog(dir_, &records).ok());
  EXPECT_EQ(records.size(), 4u);  // last record dropped, rest intact
}

TEST_F(WalTest, ReadLogToleratesCorruptTailOnNewestSegment) {
  {
    LogManager log({dir_});
    ASSERT_TRUE(log.Open().ok());
    for (int i = 0; i < 3; i++) {
      LogRecord rec = DataRecord(1, LogRecordType::kInsert,
                                 "k" + std::to_string(i));
      ASSERT_TRUE(log.Append(&rec).ok());
    }
    ASSERT_TRUE(log.Flush(log.last_lsn()).ok());
  }
  std::string contents;
  ASSERT_TRUE(ReadFileToString(SegPath(1), &contents).ok());
  contents[contents.size() - 3] ^= 0x5a;  // corrupt last record's payload
  ASSERT_TRUE(WriteStringToFileAtomic(SegPath(1), contents).ok());

  std::vector<LogRecord> records;
  ASSERT_TRUE(LogManager::ReadLog(dir_, &records).ok());
  EXPECT_EQ(records.size(), 2u);
}

TEST_F(WalTest, ReadLogOnMissingDirIsEmpty) {
  std::vector<LogRecord> records;
  ASSERT_TRUE(LogManager::ReadLog(dir_ + "/nope", &records).ok());
  EXPECT_TRUE(records.empty());
}

TEST_F(WalTest, OpenRepairsTornTailSoAppendsResumeCleanly) {
  Lsn durable;
  {
    LogManager log({dir_});
    ASSERT_TRUE(log.Open().ok());
    for (int i = 0; i < 4; i++) {
      LogRecord rec = DataRecord(1, LogRecordType::kInsert,
                                 "k" + std::to_string(i));
      ASSERT_TRUE(log.Append(&rec).ok());
    }
    ASSERT_TRUE(log.Flush(log.last_lsn()).ok());
    durable = log.last_lsn();
  }
  // Tear the newest segment mid-record, then reopen and append more. The
  // torn bytes must be cut away, not appended after (which would hide the
  // new records behind an undecodable frame).
  std::string contents;
  ASSERT_TRUE(ReadFileToString(SegPath(1), &contents).ok());
  ASSERT_TRUE(WriteStringToFileAtomic(
                  SegPath(1), contents.substr(0, contents.size() - 5))
                  .ok());
  {
    LogManager log({dir_});
    ASSERT_TRUE(log.Open().ok());
    EXPECT_EQ(log.last_lsn(), durable - 1);  // torn record excluded
    LogRecord rec = DataRecord(2, LogRecordType::kInsert, "resumed");
    ASSERT_TRUE(log.Append(&rec).ok());
    ASSERT_TRUE(log.Flush(rec.lsn).ok());
  }
  std::vector<LogRecord> records;
  ASSERT_TRUE(LogManager::ReadLog(dir_, &records).ok());
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.back().key, "resumed");
}

TEST_F(WalTest, RotationProducesDenseSegmentsAndReadLogMergesThem) {
  LogManagerOptions options;
  options.dir = dir_;
  options.segment_bytes = 256;  // tiny: force frequent rotation
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());
  constexpr int kRecords = 100;
  for (int i = 0; i < kRecords; i++) {
    LogRecord rec = DataRecord(1, LogRecordType::kInsert,
                               "key-" + std::to_string(i));
    ASSERT_TRUE(log.Append(&rec).ok());
    ASSERT_TRUE(log.Flush(rec.lsn).ok());
  }
  EXPECT_GT(log.SegmentCount(), 1u);
  EXPECT_GT(log.metrics().rotations->Value(), 0u);
  EXPECT_EQ(log.metrics().segments->Value(),
            static_cast<int64_t>(log.SegmentCount()));

  std::vector<LogRecord> records;
  ASSERT_TRUE(LogManager::ReadLog(dir_, &records).ok());
  ASSERT_EQ(records.size(), static_cast<size_t>(kRecords));
  for (int i = 0; i < kRecords; i++) {
    EXPECT_EQ(records[i].lsn, static_cast<Lsn>(i + 1));
    EXPECT_EQ(records[i].key, "key-" + std::to_string(i));
  }
}

TEST_F(WalTest, ParallelReadLogMatchesSerial) {
  LogManagerOptions options;
  options.dir = dir_;
  options.segment_bytes = 200;
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());
  for (int i = 0; i < 200; i++) {
    LogRecord rec = DataRecord(1, LogRecordType::kInsert,
                               "key-" + std::to_string(i));
    ASSERT_TRUE(log.Append(&rec).ok());
    ASSERT_TRUE(log.Flush(rec.lsn).ok());
  }
  ASSERT_GT(log.SegmentCount(), 2u);

  std::vector<LogRecord> serial, parallel;
  ASSERT_TRUE(LogManager::ReadLog(dir_, &serial, nullptr, 1).ok());
  ASSERT_TRUE(LogManager::ReadLog(dir_, &parallel, nullptr, 4).ok());
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); i++) {
    EXPECT_EQ(serial[i].lsn, parallel[i].lsn);
    EXPECT_EQ(serial[i].key, parallel[i].key);
  }
}

TEST_F(WalTest, RetireSegmentsBelowDeletesOnlyDeadSealedSegments) {
  LogManagerOptions options;
  options.dir = dir_;
  options.segment_bytes = 200;
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());
  for (int i = 0; i < 100; i++) {
    LogRecord rec = DataRecord(1, LogRecordType::kInsert,
                               "key-" + std::to_string(i));
    ASSERT_TRUE(log.Append(&rec).ok());
    ASSERT_TRUE(log.Flush(rec.lsn).ok());
  }
  const size_t before = log.SegmentCount();
  ASSERT_GT(before, 2u);

  // Horizon in the middle of the stream: only segments entirely below it go.
  ASSERT_TRUE(log.RetireSegmentsBelow(50).ok());
  const size_t after_mid = log.SegmentCount();
  EXPECT_LT(after_mid, before);
  EXPECT_GT(log.metrics().segments_retired->Value(), 0u);
  std::vector<LogRecord> records;
  ASSERT_TRUE(LogManager::ReadLog(dir_, &records).ok());
  ASSERT_FALSE(records.empty());
  // Every record at or above the horizon survived.
  EXPECT_LE(records.front().lsn, 50u);
  EXPECT_EQ(records.back().lsn, 100u);
  Lsn prev = records.front().lsn;
  for (size_t i = 1; i < records.size(); i++) {
    EXPECT_EQ(records[i].lsn, prev + 1);
    prev = records[i].lsn;
  }

  // A horizon above everything keeps the open segment alive.
  ASSERT_TRUE(log.RetireSegmentsBelow(10'000).ok());
  EXPECT_EQ(log.SegmentCount(), 1u);
  LogRecord rec = DataRecord(2, LogRecordType::kInsert, "after-retire");
  ASSERT_TRUE(log.Append(&rec).ok());
  ASSERT_TRUE(log.Flush(rec.lsn).ok());
  EXPECT_EQ(rec.lsn, 101u);
}

TEST_F(WalTest, CorruptionInSealedSegmentIsHardError) {
  LogManagerOptions options;
  options.dir = dir_;
  options.segment_bytes = 200;
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());
  for (int i = 0; i < 100; i++) {
    LogRecord rec = DataRecord(1, LogRecordType::kInsert,
                               "key-" + std::to_string(i));
    ASSERT_TRUE(log.Append(&rec).ok());
    ASSERT_TRUE(log.Flush(rec.lsn).ok());
  }
  ASSERT_GT(log.SegmentCount(), 2u);

  // Flip one byte in the *first* (sealed) segment. Rotation fsyncs before
  // sealing, so damage here cannot be a crash artifact — ReadLog must
  // refuse rather than silently drop the tail of the segment.
  std::string contents;
  ASSERT_TRUE(ReadFileToString(SegPath(1), &contents).ok());
  contents[contents.size() - 3] ^= 0x5a;
  ASSERT_TRUE(WriteStringToFileAtomic(SegPath(1), contents).ok());

  std::vector<LogRecord> records;
  Status s = LogManager::ReadLog(dir_, &records);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(WalTest, MissingSegmentInSequenceIsCorruption) {
  LogManagerOptions options;
  options.dir = dir_;
  options.segment_bytes = 200;
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());
  for (int i = 0; i < 100; i++) {
    LogRecord rec = DataRecord(1, LogRecordType::kInsert,
                               "key-" + std::to_string(i));
    ASSERT_TRUE(log.Append(&rec).ok());
    ASSERT_TRUE(log.Flush(rec.lsn).ok());
  }
  ASSERT_GT(log.SegmentCount(), 2u);
  // Delete a middle segment out from under the log.
  std::filesystem::remove(SegPath(2));

  std::vector<LogRecord> records;
  Status s = LogManager::ReadLog(dir_, &records);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("gap"), std::string::npos) << s.ToString();
}

TEST_F(WalTest, GroupCommitBatchesConcurrentCommitters) {
  LogManagerOptions options;
  options.dir = dir_;
  options.flush_delay_micros = 2000;  // make flushes slow enough to batch
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());

  constexpr int kThreads = 8;
  constexpr int kCommitsPerThread = 20;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCommitsPerThread; i++) {
        LogRecord rec = DataRecord(static_cast<TxnId>(t + 1),
                                   LogRecordType::kCommit, "");
        ASSERT_TRUE(log.Append(&rec).ok());
        ASSERT_TRUE(log.Flush(rec.lsn).ok());
      }
    });
  }
  for (auto& t : threads) t.join();

  uint64_t flushes = log.metrics().flushes->Value();
  uint64_t records = log.metrics().records_appended->Value();
  EXPECT_EQ(records, static_cast<uint64_t>(kThreads * kCommitsPerThread));
  // With 8 concurrent committers and a 2ms flush, batching must occur:
  // strictly fewer flushes than records.
  EXPECT_LT(flushes, records);

  std::vector<LogRecord> read_back;
  ASSERT_TRUE(LogManager::ReadLog(dir_, &read_back).ok());
  EXPECT_EQ(read_back.size(), records);
}

TEST_F(WalTest, ConcurrentCommittersWithRotation) {
  LogManagerOptions options;
  options.dir = dir_;
  options.segment_bytes = 512;
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());

  constexpr int kThreads = 4;
  constexpr int kCommitsPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCommitsPerThread; i++) {
        LogRecord rec = DataRecord(static_cast<TxnId>(t + 1),
                                   LogRecordType::kInsert,
                                   "t" + std::to_string(t) + "-" +
                                       std::to_string(i));
        ASSERT_TRUE(log.Append(&rec).ok());
        ASSERT_TRUE(log.Flush(rec.lsn).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_GT(log.SegmentCount(), 1u);

  // The merged stream is dense regardless of how batches hit segments.
  std::vector<LogRecord> records;
  ASSERT_TRUE(LogManager::ReadLog(dir_, &records, nullptr, 4).ok());
  ASSERT_EQ(records.size(),
            static_cast<size_t>(kThreads * kCommitsPerThread));
  for (size_t i = 0; i < records.size(); i++) {
    EXPECT_EQ(records[i].lsn, static_cast<Lsn>(i + 1));
  }
}

TEST_F(WalTest, RotateNowSealsAndSkipsEmptySegment) {
  LogManager log({dir_});
  ASSERT_TRUE(log.Open().ok());
  // Rotating an empty open segment is a no-op: no empty-file litter.
  ASSERT_TRUE(log.RotateNow().ok());
  EXPECT_EQ(log.SegmentCount(), 1u);

  LogRecord rec = DataRecord(1, LogRecordType::kInsert, "k");
  ASSERT_TRUE(log.Append(&rec).ok());
  ASSERT_TRUE(log.RotateNow().ok());  // flushes, seals, opens segment 2
  EXPECT_EQ(log.SegmentCount(), 2u);
  EXPECT_EQ(log.flushed_lsn(), rec.lsn);

  LogRecord rec2 = DataRecord(1, LogRecordType::kInsert, "k2");
  ASSERT_TRUE(log.Append(&rec2).ok());
  ASSERT_TRUE(log.Flush(rec2.lsn).ok());
  std::vector<LogRecord> records;
  ASSERT_TRUE(LogManager::ReadLog(dir_, &records).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].key, "k2");
}

TEST_F(WalTest, ListSegmentFilesSortedBySeqno) {
  LogManagerOptions options;
  options.dir = dir_;
  options.segment_bytes = 200;
  LogManager log(options);
  ASSERT_TRUE(log.Open().ok());
  for (int i = 0; i < 60; i++) {
    LogRecord rec = DataRecord(1, LogRecordType::kInsert,
                               "key-" + std::to_string(i));
    ASSERT_TRUE(log.Append(&rec).ok());
    ASSERT_TRUE(log.Flush(rec.lsn).ok());
  }
  auto listed = LogManager::ListSegmentFiles(dir_);
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), log.SegmentCount());
  for (size_t i = 1; i < listed->size(); i++) {
    EXPECT_LT((*listed)[i - 1], (*listed)[i]);
  }
}

// Before Open() a durable log has no segment file, so a record it staged
// would be acked by the writer's next pass without ever being written.
TEST_F(WalTest, DurableLogRefusesAppendsBeforeOpen) {
  {
    LogManager log({dir_});
    LogRecord early = DataRecord(1, LogRecordType::kInsert, "early");
    Status s = log.Append(&early);
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
    EXPECT_EQ(log.last_lsn(), 0u);

    ASSERT_TRUE(log.Open().ok());
    LogRecord rec = DataRecord(1, LogRecordType::kInsert, "k");
    ASSERT_TRUE(log.Append(&rec).ok());
    EXPECT_EQ(rec.lsn, 1u);
    ASSERT_TRUE(log.Flush(rec.lsn).ok());
  }
  std::vector<LogRecord> records;
  ASSERT_TRUE(LogManager::ReadLog(dir_, &records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, "k");
}

TEST_F(WalTest, InMemoryLogNeedsNoFile) {
  LogManager log({""});
  ASSERT_TRUE(log.Open().ok());
  LogRecord rec = DataRecord(1, LogRecordType::kInsert, "k");
  ASSERT_TRUE(log.Append(&rec).ok());
  ASSERT_TRUE(log.Flush(rec.lsn).ok());
  EXPECT_EQ(log.flushed_lsn(), rec.lsn);
  ASSERT_TRUE(log.RotateNow().ok());  // no-op without a directory
  EXPECT_EQ(log.SegmentCount(), 0u);
}

TEST_F(WalTest, AdvancePastLsn) {
  LogManager log({dir_});
  ASSERT_TRUE(log.Open().ok());
  log.AdvancePastLsn(100);
  LogRecord rec = DataRecord(1, LogRecordType::kInsert, "k");
  ASSERT_TRUE(log.Append(&rec).ok());
  EXPECT_EQ(rec.lsn, 101u);
  EXPECT_GE(log.flushed_lsn(), 100u);
}

}  // namespace
}  // namespace ivdb
