// Tests for the I/O middleware, workload semantics, the runner and the
// profiling tracer (integration across cloud/fs/mpi/io).
#include <gtest/gtest.h>

#include "acic/common/error.hpp"
#include "acic/io/middleware.hpp"
#include "acic/io/runner.hpp"
#include "acic/io/workload.hpp"
#include "acic/profiler/tracer.hpp"

namespace acic::io {
namespace {

Workload small_workload() {
  Workload w;
  w.name = "unit";
  w.num_processes = 32;
  w.num_io_processes = 32;
  w.interface = IoInterface::kMpiIo;
  w.iterations = 2;
  w.data_size = 8.0 * MiB;
  w.request_size = 4.0 * MiB;
  w.op = OpMix::kWrite;
  w.collective = false;
  w.file_shared = true;
  return w;
}

cloud::IoConfig pvfs4() {
  cloud::IoConfig c;
  c.fs = cloud::FileSystemType::kPvfs2;
  c.device = storage::DeviceType::kEphemeral;
  c.io_servers = 4;
  c.placement = cloud::Placement::kDedicated;
  c.stripe_size = 4.0 * MiB;
  return c;
}

RunOptions quiet() {
  RunOptions o;
  o.jitter_sigma = 0.0;
  return o;
}

TEST(WorkloadTest, NormalizeClampsFields) {
  Workload w = small_workload();
  w.num_io_processes = 64;
  w.request_size = 32.0 * MiB;
  w.interface = IoInterface::kPosix;
  w.collective = true;
  w.normalize();
  EXPECT_EQ(w.num_io_processes, 32);
  EXPECT_DOUBLE_EQ(w.request_size, w.data_size);
  EXPECT_FALSE(w.collective);  // POSIX cannot do collective I/O
  EXPECT_TRUE(w.valid());
}

TEST(WorkloadTest, ByteAccounting) {
  Workload w = small_workload();
  EXPECT_DOUBLE_EQ(w.bytes_per_iteration(), 32 * 8.0 * MiB);
  EXPECT_DOUBLE_EQ(w.total_bytes(), 2 * 32 * 8.0 * MiB);
  w.op = OpMix::kReadWrite;
  EXPECT_DOUBLE_EQ(w.bytes_per_iteration(), 2 * 32 * 8.0 * MiB);
}

TEST(WorkloadTest, StringRoundTrips) {
  EXPECT_EQ(interface_from_string("POSIX"), IoInterface::kPosix);
  EXPECT_EQ(interface_from_string("mpiio"), IoInterface::kMpiIo);
  EXPECT_EQ(opmix_from_string("read+write"), OpMix::kReadWrite);
  EXPECT_THROW(interface_from_string("carrier-pigeon"), Error);
  EXPECT_STREQ(to_string(OpMix::kWrite), "write");
  EXPECT_STREQ(to_string(IoInterface::kHdf5), "HDF5");
}

TEST(RunnerTest, CompletesAndReportsSaneNumbers) {
  const auto r = run_workload(small_workload(), pvfs4(), quiet());
  EXPECT_GT(r.total_time, 0.0);
  EXPECT_GT(r.io_time, 0.0);
  EXPECT_LE(r.io_time, r.total_time + 1e-9);
  EXPECT_EQ(r.num_instances, 6);  // 2 compute (32/16) + 4 dedicated IO
  EXPECT_GT(r.fs_requests, 0u);
  // All written bytes reach the file system.
  EXPECT_NEAR(r.fs_bytes, small_workload().total_bytes(), 1.0);
  EXPECT_NEAR(r.cost, r.total_time * 6 * per_hour(2.40), 1e-9);
}

TEST(RunnerTest, DeterministicForSameSeed) {
  const auto a = run_workload(small_workload(), pvfs4(), quiet());
  const auto b = run_workload(small_workload(), pvfs4(), quiet());
  EXPECT_DOUBLE_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.sim_events, b.sim_events);
}

TEST(RunnerTest, JitterChangesButStaysClose) {
  RunOptions o1 = quiet(), o2 = quiet();
  o1.jitter_sigma = o2.jitter_sigma = 0.08;
  o1.seed = 1;
  o2.seed = 2;
  const auto a = run_workload(small_workload(), pvfs4(), o1);
  const auto b = run_workload(small_workload(), pvfs4(), o2);
  EXPECT_NE(a.total_time, b.total_time);
  EXPECT_NEAR(a.total_time / b.total_time, 1.0, 0.5);
}

TEST(RunnerTest, CollectiveCoalescesRequests) {
  Workload independent = small_workload();
  independent.data_size = 2.0 * MiB;
  independent.request_size = 256.0 * KiB;
  Workload collective = independent;
  collective.collective = true;
  const auto ri = run_workload(independent, pvfs4(), quiet());
  const auto rc = run_workload(collective, pvfs4(), quiet());
  // Two-phase I/O issues far fewer, larger file-system requests.
  EXPECT_LT(rc.fs_requests, ri.fs_requests / 2);
}

TEST(RunnerTest, CollectiveHelpsSmallRequestsOnSharedFile) {
  Workload w = small_workload();
  w.num_processes = 64;
  w.num_io_processes = 64;
  w.data_size = 4.0 * MiB;
  w.request_size = 256.0 * KiB;
  Workload wc = w;
  wc.collective = true;
  const auto plain = run_workload(w, pvfs4(), quiet());
  const auto coll = run_workload(wc, pvfs4(), quiet());
  EXPECT_LT(coll.total_time, plain.total_time);
}

TEST(RunnerTest, ReadWriteMixMovesBothDirections) {
  Workload w = small_workload();
  w.op = OpMix::kReadWrite;
  const auto r = run_workload(w, pvfs4(), quiet());
  EXPECT_NEAR(r.fs_bytes, w.total_bytes(), 1.0);
}

TEST(RunnerTest, Hdf5AddsOverheadOverMpiIo) {
  Workload plain = small_workload();
  plain.collective = true;
  Workload hdf5 = plain;
  hdf5.interface = IoInterface::kHdf5;
  const auto a = run_workload(plain, pvfs4(), quiet());
  const auto b = run_workload(hdf5, pvfs4(), quiet());
  EXPECT_GT(b.total_time, a.total_time);
}

TEST(RunnerTest, ComputePhaseExtendsRuntime) {
  Workload w = small_workload();
  Workload wc = w;
  wc.compute_per_iteration = 5.0;
  const auto a = run_workload(w, pvfs4(), quiet());
  const auto b = run_workload(wc, pvfs4(), quiet());
  EXPECT_NEAR(b.total_time - a.total_time, 10.0, 1.5);  // 2 iterations
}

TEST(RunnerTest, FewerIoProcessesMoveLessData) {
  Workload w = small_workload();
  w.num_io_processes = 8;
  const auto r = run_workload(w, pvfs4(), quiet());
  EXPECT_NEAR(r.fs_bytes, 2 * 8 * 8.0 * MiB, 1.0);
}

TEST(RunnerTest, FailureInjectionSlowsTheRun) {
  Workload w = small_workload();
  w.iterations = 4;
  RunOptions calm = quiet();
  RunOptions stormy = quiet();
  stormy.fault_model.outages_per_hour = 2000.0;  // aggressive: short run
  const auto a = run_workload(w, pvfs4(), calm);
  const auto b = run_workload(w, pvfs4(), stormy);
  EXPECT_GT(b.total_time, a.total_time);
}

TEST(RunnerTest, RejectsInvalidWorkload) {
  Workload w = small_workload();
  w.iterations = 0;
  EXPECT_THROW(run_workload(w, pvfs4(), quiet()), Error);
}

TEST(TracerTest, InfersCharacteristicsFromRun) {
  Workload w = small_workload();
  w.num_io_processes = 16;
  w.op = OpMix::kWrite;
  profiler::IoTracer tracer;
  RunOptions o = quiet();
  o.tracer = &tracer;
  run_workload(w, pvfs4(), o);

  const auto inferred = tracer.infer_workload();
  EXPECT_EQ(inferred.num_processes, 32);
  EXPECT_EQ(inferred.num_io_processes, 16);
  EXPECT_EQ(inferred.iterations, 2);
  EXPECT_EQ(inferred.op, OpMix::kWrite);
  EXPECT_NEAR(inferred.data_size, w.data_size, 1.0);
  EXPECT_NEAR(inferred.request_size, w.request_size, 1.0);
  EXPECT_EQ(inferred.interface, w.interface);
  EXPECT_EQ(inferred.collective, w.collective);
  EXPECT_EQ(inferred.file_shared, w.file_shared);
}

TEST(TracerTest, CountsOpsAndBytes) {
  Workload w = small_workload();  // 2 chunks/proc/iter, 32 procs, 2 iters
  profiler::IoTracer tracer;
  RunOptions o = quiet();
  o.tracer = &tracer;
  run_workload(w, pvfs4(), o);
  EXPECT_EQ(tracer.op_count(true), 128u);
  EXPECT_EQ(tracer.op_count(false), 0u);
  EXPECT_NEAR(tracer.byte_count(true), w.total_bytes(), 1.0);
}

TEST(TracerTest, RequiresJobInfoAndRecords) {
  profiler::IoTracer t;
  EXPECT_THROW(t.infer_workload(), Error);
  t.set_job_info(4, IoInterface::kPosix, false, true);
  EXPECT_THROW(t.infer_workload(), Error);  // still no records
  t.record(0, 1024.0, 1024.0, 1.0, true, 0.0, 0);
  const auto w = t.infer_workload();
  EXPECT_EQ(w.num_io_processes, 1);
  EXPECT_DOUBLE_EQ(w.data_size, 1024.0);
}

}  // namespace
}  // namespace acic::io
