/**
 * @file
 * google-benchmark microbenchmarks for the hot paths of the compile
 * pipeline and the simulator: StepFunction range math, vitality
 * analysis, Algorithm 1 scheduling, the SSD FTL's write path, and full
 * simulation replay.
 */

#include <benchmark/benchmark.h>

#include <optional>

#include "api/g10.h"
#include "core/g10_compiler.h"
#include "sim/ssd/ssd_device.h"

namespace {

using namespace g10;

void
BM_StepFunctionAdd(benchmark::State& state)
{
    const auto ranges = state.range(0);
    for (auto _ : state) {
        StepFunction f;
        for (std::int64_t i = 0; i < ranges; ++i)
            f.add(i * 7, i * 7 + 400, 1.0);
        benchmark::DoNotOptimize(f.maxValue());
    }
    state.SetItemsProcessed(state.iterations() * ranges);
}
BENCHMARK(BM_StepFunctionAdd)->Arg(256)->Arg(4096);

void
BM_StepFunctionIntegralAbove(benchmark::State& state)
{
    StepFunction f;
    for (std::int64_t i = 0; i < 4096; ++i)
        f.add(i * 11, i * 11 + 700, 1.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            f.integralAbove(0, 4096 * 11, 20.0, 5.0));
}
BENCHMARK(BM_StepFunctionIntegralAbove);

void
BM_StepFunctionCursorWalk(benchmark::State& state)
{
    // The bandwidth model's drainTime pattern: walk segments from t0
    // until the flow drains, typically stopping long before the
    // horizon. The cursor makes this allocation-free and early-exiting
    // (materializing segments() here would build all ~4096 of them).
    StepFunction f;
    for (std::int64_t i = 0; i < 4096; ++i)
        f.add(i * 11, i * 11 + 700, 1.0);
    for (auto _ : state) {
        double drained = 0.0;
        for (auto c = f.cursor(0, 4096 * 11); !c.done(); c.next()) {
            drained +=
                c.value() * static_cast<double>(c.end() - c.begin());
            if (drained > 1e6)
                break;
        }
        benchmark::DoNotOptimize(drained);
    }
}
BENCHMARK(BM_StepFunctionCursorWalk);

void
BM_BuildModelTrace(benchmark::State& state)
{
    auto kind = static_cast<ModelKind>(state.range(0));
    for (auto _ : state) {
        KernelTrace t = buildModelScaled(kind, paperBatchSize(kind), 32);
        benchmark::DoNotOptimize(t.numKernels());
    }
}
BENCHMARK(BM_BuildModelTrace)
    ->Arg(static_cast<int>(ModelKind::BertBase))
    ->Arg(static_cast<int>(ModelKind::ResNet152));

void
BM_VitalityAnalysis(benchmark::State& state)
{
    KernelTrace t =
        buildModelScaled(ModelKind::ResNet152, 1280, 32);
    for (auto _ : state) {
        VitalityAnalysis v(t, 5 * USEC);
        benchmark::DoNotOptimize(v.periods().size());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(t.numKernels()));
}
BENCHMARK(BM_VitalityAnalysis);

void
BM_CompileG10Plan(benchmark::State& state)
{
    KernelTrace t =
        buildModelScaled(ModelKind::SENet154, 1024, 32);
    SystemConfig sys = SystemConfig().scaledDown(32);
    for (auto _ : state) {
        CompiledPlan plan = compileG10Plan(t, sys);
        benchmark::DoNotOptimize(plan.plan.size());
    }
}
BENCHMARK(BM_CompileG10Plan);

void
BM_SsdServiceWrite(benchmark::State& state)
{
    // The driver path (FlashNeuron): one 256 MiB region rewritten in
    // nonUvmCopyBytes batches on the paper's device. Each pass appends
    // to the log and invalidates the previous copy of every page. The
    // device is rebuilt, untimed, well before the log nears the GC
    // threshold, so this times the append path alone.
    const SystemConfig sys;
    const Bytes region = 256 * MiB;
    const Bytes batch = sys.nonUvmCopyBytes;
    const Bytes page = SsdDevice::Geometry().flashPageBytes;
    std::optional<SsdDevice> ssd;
    std::uint64_t lp = 0;
    std::int64_t passes = 0;
    for (auto _ : state) {
        if (passes++ % 1024 == 0) {
            state.PauseTiming();
            ssd.emplace(sys);
            lp = ssd->allocLogical(region);
            state.ResumeTiming();
        }
        TimeNs busy = 0;
        for (Bytes off = 0; off < region; off += batch)
            busy += ssd->serviceWrite(lp + off / page, batch);
        benchmark::DoNotOptimize(busy);
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(region));
}
BENCHMARK(BM_SsdServiceWrite);

void
BM_SimulateG10(benchmark::State& state)
{
    KernelTrace t =
        buildModelScaled(ModelKind::ResNet152, 1280, 32);
    SystemConfig sys = SystemConfig().scaledDown(32);
    auto policy = makeG10(t, sys);
    RunConfig rc;
    rc.sys = sys;
    rc.uvmExtension = true;
    for (auto _ : state) {
        ExecStats st = simulate(t, *policy, rc);
        benchmark::DoNotOptimize(st.measuredIterationNs);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(t.numKernels()));
}
BENCHMARK(BM_SimulateG10);

void
BM_SimulateBaseUvm(benchmark::State& state)
{
    KernelTrace t =
        buildModelScaled(ModelKind::ResNet152, 1280, 32);
    SystemConfig sys = SystemConfig().scaledDown(32);
    BaseUvmPolicy policy;
    RunConfig rc;
    rc.sys = sys;
    for (auto _ : state) {
        ExecStats st = simulate(t, policy, rc);
        benchmark::DoNotOptimize(st.measuredIterationNs);
    }
}
BENCHMARK(BM_SimulateBaseUvm);

}  // namespace

BENCHMARK_MAIN();
