/**
 * @file
 * Seed/regression corpus generator for the fuzz harnesses.
 *
 * Writes the committed corpus under the directory given as argv[1]
 * (normally tests/fuzz/corpus). Two kinds of entries:
 *
 *   seed_*     valid encodings of every message/format, produced by the
 *              real encoders, so coverage-guided fuzzing starts from
 *              deep in the decode paths rather than from noise
 *   regress_*  inputs reproducing fixed decode defects (allocation
 *              bombs from hostile count prefixes, truncations, checksum
 *              and version corruption, out-of-range enums), kept so the
 *              plain-build corpus replay re-checks every fix forever
 *
 * Deterministic by construction: running it twice writes identical
 * bytes, so regenerating after a format bump yields a clean diff.
 */

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>

#include "common/serialize.hh"
#include "serve/protocol.hh"
#include "sim/sweep.hh"
#include "workload/trace.hh"

namespace fs = std::filesystem;
using namespace thermctl;
using namespace thermctl::serve;

namespace
{

bool
writeBytes(const fs::path &path, std::string_view bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
        std::fprintf(stderr, "gen_corpus: cannot write %s\n",
                     path.string().c_str());
        return false;
    }
    return true;
}

/** Prefix a harness payload with its fuzz_protocol selector byte. */
std::string
sel(std::uint8_t selector, std::string_view payload)
{
    std::string out(1, static_cast<char>(selector));
    out.append(payload);
    return out;
}

RunResult
sampleResult()
{
    RunResult r;
    r.benchmark = "183.equake";
    r.policy = "PI";
    r.category = ThermalCategory::High;
    r.ipc = 1.375;
    r.raw_ipc = 1.4375;
    r.avg_power = 41.25;
    r.emergency_fraction = 0.0625;
    r.stress_fraction = 0.25;
    r.max_temperature = 113.5;
    r.mean_duty = 0.9375;
    for (std::size_t i = 0; i < r.structures.size(); ++i) {
        r.structures[i].avg_temp = 70.0 + double(i);
        r.structures[i].max_temp = 95.0 + double(i);
        r.structures[i].emergency_fraction = 0.001 * double(i);
        r.structures[i].stress_fraction = 0.002 * double(i);
        r.structures[i].avg_power = 2.0 + 0.25 * double(i);
    }
    return r;
}

bool
genProtocol(const fs::path &dir)
{
    // --- seeds: every message type, encoded by the real encoders.
    RunRequest run_req;
    run_req.deadline_ms = 2500;
    run_req.point.num_cores = 4;
    run_req.point.coupling_r = 4.0;
    run_req.point.chip_budget = 60.0;
    run_req.point.budget_policy = 1; // demand-proportional

    SweepRequest sweep_req;
    sweep_req.benchmarks = {"186.crafty", "183.equake"};
    sweep_req.policies = {"none", "PI"};
    sweep_req.point.ct_setpoint = 81.8;
    sweep_req.point.num_cores = 2;
    sweep_req.point.chip_budget = 45.0;

    CacheQueryRequest cache_req;

    RunReply run_reply;
    run_reply.point.result = sampleResult();
    run_reply.point.cache_hit = true;
    run_reply.point.server_ms = 12.5;

    SweepReply sweep_reply;
    sweep_reply.points.resize(2);
    sweep_reply.points[0].result = sampleResult();
    sweep_reply.points[1].error = ServeError::DeadlineExceeded;
    sweep_reply.points[1].message = "expired in queue";

    CacheQueryReply cache_reply;
    cache_reply.cached = true;
    cache_reply.digest = 0x12345678abcdef00ull;

    StatsReply stats_reply;
    stats_reply.requests_total = 42;
    stats_reply.latency_count = 17;
    stats_reply.latency_mean_ms = 3.5;

    DrainReply drain_reply;
    drain_reply.was_draining = true;

    ErrorReply error_reply;
    error_reply.code = ServeError::Overloaded;
    error_reply.message = "queue full";

    PingReply ping_reply;
    ping_reply.draining = true;
    ping_reply.queue_depth = 7;
    ping_reply.stalled = 1;

    const std::string stats_frame =
        encodeFrame(MsgType::StatsRequest, StatsRequest{}.encode());

    bool ok = true;
    ok &= writeBytes(dir / "seed_frame_header",
                     sel(0, stats_frame.substr(0, kFrameHeaderBytes)));
    ok &= writeBytes(dir / "seed_run_request", sel(1, run_req.encode()));
    ok &= writeBytes(dir / "seed_sweep_request",
                     sel(2, sweep_req.encode()));
    ok &= writeBytes(dir / "seed_cache_query_request",
                     sel(3, cache_req.encode()));
    ok &= writeBytes(dir / "seed_stats_request",
                     sel(4, StatsRequest{}.encode()));
    ok &= writeBytes(dir / "seed_drain_request",
                     sel(5, DrainRequest{}.encode()));
    ok &= writeBytes(dir / "seed_run_reply", sel(6, run_reply.encode()));
    ok &= writeBytes(dir / "seed_sweep_reply",
                     sel(7, sweep_reply.encode()));
    ok &= writeBytes(dir / "seed_cache_query_reply",
                     sel(8, cache_reply.encode()));
    ok &= writeBytes(dir / "seed_stats_reply",
                     sel(9, stats_reply.encode()));
    ok &= writeBytes(dir / "seed_drain_reply",
                     sel(10, drain_reply.encode()));
    ok &= writeBytes(dir / "seed_error_reply",
                     sel(11, error_reply.encode()));
    ok &= writeBytes(dir / "seed_ping_request",
                     sel(12, PingRequest{}.encode()));
    ok &= writeBytes(dir / "seed_ping_reply",
                     sel(13, ping_reply.encode()));

    // --- regressions.
    // Allocation bomb: a tiny SweepRequest payload claiming 2^20
    // benchmark strings. Before the remaining()-based bound this made
    // decodeStrings() reserve a multi-hundred-MB vector.
    {
        ByteWriter w;
        w.u64(1u << 20);
        ok &= writeBytes(dir / "regress_sweep_request_count_bomb",
                         sel(2, w.take()));
    }
    // Same shape against SweepReply's point vector (inline RunResults).
    {
        ByteWriter w;
        w.u64(1u << 20);
        ok &= writeBytes(dir / "regress_sweep_reply_count_bomb",
                         sel(7, w.take()));
    }
    // Truncation mid-string must flip the reader, not read past the end.
    {
        const std::string full = run_req.encode();
        ok &= writeBytes(dir / "regress_run_request_truncated",
                         sel(1, full.substr(0, full.size() / 2)));
    }
    // Hostile multicore knobs (wire v3): a core count far beyond
    // kMaxCores, a negative coupling resistance, and an unknown budget
    // policy must each fail decode as a typed bad request — before any
    // core-count-sized allocation happens server-side.
    {
        RunRequest hostile = run_req;
        hostile.point.num_cores = 0xffffffffu;
        ok &= writeBytes(dir / "regress_run_request_hostile_cores",
                         sel(1, hostile.encode()));
    }
    {
        RunRequest hostile = run_req;
        hostile.point.coupling_r = -4.0;
        ok &= writeBytes(dir / "regress_run_request_negative_coupling",
                         sel(1, hostile.encode()));
    }
    {
        SweepRequest hostile = sweep_req;
        hostile.point.num_cores = 0xffffffffu;
        hostile.point.budget_policy = 0xff;
        ok &= writeBytes(dir / "regress_sweep_request_hostile_cores",
                         sel(2, hostile.encode()));
    }
    // Frame header abuse: bad magic, foreign version, oversize length.
    {
        std::string hdr = stats_frame.substr(0, kFrameHeaderBytes);
        hdr[0] = 'X';
        ok &= writeBytes(dir / "regress_frame_bad_magic", sel(0, hdr));
    }
    {
        std::string hdr = stats_frame.substr(0, kFrameHeaderBytes);
        hdr[4] = static_cast<char>(kWireVersion + 1);
        ok &= writeBytes(dir / "regress_frame_bad_version", sel(0, hdr));
    }
    {
        std::string hdr = stats_frame.substr(0, kFrameHeaderBytes);
        hdr[6] = '\xff'; // payload_len low byte
        hdr[7] = '\xff';
        hdr[8] = '\xff';
        hdr[9] = '\xff'; // => 0xffffffff > kMaxFramePayload
        ok &= writeBytes(dir / "regress_frame_oversize_len", sel(0, hdr));
    }
    // Mid-payload truncations at fault-point boundaries: the shapes an
    // injected serve.sock.read/write abort or short-count leaves behind
    // (connection cut partway through a reply). Decoders must reject
    // every cut cleanly — no overread, no partial decode accepted.
    {
        const std::string full = run_reply.encode();
        ok &= writeBytes(dir / "regress_run_reply_truncated",
                         sel(6, full.substr(0, full.size() / 2)));
        ok &= writeBytes(dir / "regress_run_reply_cut_last_byte",
                         sel(6, full.substr(0, full.size() - 1)));
    }
    {
        // Cut inside the second point of a sweep reply: the first point
        // decodes, the torn tail must still fail the whole message.
        const std::string full = sweep_reply.encode();
        ok &= writeBytes(dir / "regress_sweep_reply_truncated",
                         sel(7, full.substr(0, full.size() * 3 / 4)));
    }
    {
        // ErrorReply cut mid-message-string (code byte survives).
        const std::string full = error_reply.encode();
        ok &= writeBytes(dir / "regress_error_reply_truncated",
                         sel(11, full.substr(0, full.size() / 2)));
    }
    {
        // A header itself cut short by an aborted read.
        ok &= writeBytes(dir / "regress_frame_header_truncated",
                         sel(0, stats_frame.substr(
                                    0, kFrameHeaderBytes / 2)));
    }
    // Ping hostility (wire v4): a PingRequest with trailing bytes and a
    // PingReply with a non-boolean draining byte or a torn tail must
    // each fail decode — health probes are the first thing a coordinator
    // sends a worker, so their decoders meet hostile peers first.
    {
        ok &= writeBytes(dir / "regress_ping_request_trailing",
                         sel(12, std::string("\x01", 1)));
    }
    {
        std::string bad = ping_reply.encode();
        bad[1] = '\x02'; // draining must be strictly 0/1
        ok &= writeBytes(dir / "regress_ping_reply_bad_bool",
                         sel(13, bad));
        const std::string full = ping_reply.encode();
        ok &= writeBytes(dir / "regress_ping_reply_truncated",
                         sel(13, full.substr(0, full.size() / 2)));
    }
    return ok;
}

bool
genRunResult(const fs::path &dir)
{
    const std::string valid = serializeRunResult(sampleResult());

    bool ok = true;
    ok &= writeBytes(dir / "seed_valid", valid);

    std::string bad_version = valid;
    bad_version[0] = static_cast<char>(kRunResultFormatVersion + 1);
    ok &= writeBytes(dir / "regress_bad_version", bad_version);

    // Flipping any bit must fail the trailing checksum, never decode.
    std::string flipped = valid;
    flipped[valid.size() / 2] ^= 0x10;
    ok &= writeBytes(dir / "regress_payload_bitflip", flipped);

    std::string bad_sum = valid;
    bad_sum.back() ^= 0x01;
    ok &= writeBytes(dir / "regress_checksum_flip", bad_sum);

    ok &= writeBytes(dir / "regress_truncated",
                     std::string_view(valid).substr(0, valid.size() - 9));
    ok &= writeBytes(dir / "regress_empty", "");
    return ok;
}

bool
genTrace(const fs::path &dir)
{
    // Build a small valid trace with the real writer so the corpus
    // tracks the on-disk format exactly.
    const fs::path valid_path = dir / "seed_valid";
    {
        TraceWriter w(valid_path.string());
        MicroOp alu;
        alu.pc = 0x1000;
        alu.op = OpClass::IntAlu;
        alu.num_srcs = 2;
        alu.srcs = {1, 2};
        alu.dest = 3;
        w.append(alu);

        MicroOp load;
        load.pc = 0x1004;
        load.op = OpClass::Load;
        load.mem_addr = 0x8000;
        load.mem_size = 4;
        load.dest = 4;
        w.append(load);

        MicroOp br;
        br.pc = 0x1008;
        br.op = OpClass::Branch;
        br.is_branch = true;
        br.is_conditional = true;
        br.taken = true;
        br.target = 0x1000;
        w.append(br);
        w.close();
    }
    std::string valid;
    {
        std::ifstream in(valid_path, std::ios::binary);
        valid.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
        if (in.bad() || valid.empty()) {
            std::fprintf(stderr, "gen_corpus: cannot re-read %s\n",
                         valid_path.string().c_str());
            return false;
        }
    }
    constexpr std::size_t kHeaderBytes = 16; // magic+version+count

    bool ok = true;
    // Header bomb: 16-byte header declaring 2^60 records. Before the
    // count-vs-file-size cross-check this drove a 2^60-element reserve.
    {
        std::string bomb = valid.substr(0, kHeaderBytes);
        const std::uint64_t huge = 1ull << 60;
        for (int i = 0; i < 8; ++i)
            bomb[8 + i] = static_cast<char>(huge >> (8 * i));
        ok &= writeBytes(dir / "regress_header_count_bomb", bomb);
    }
    // Count disagreeing with the byte length (one extra claimed).
    {
        std::string off = valid;
        off[8] = static_cast<char>(off[8] + 1);
        ok &= writeBytes(dir / "regress_count_mismatch", off);
    }
    // Out-of-range op class in the second record.
    {
        std::string bad = valid;
        const std::size_t record = (bad.size() - kHeaderBytes) / 3;
        bad[kHeaderBytes + record + 30] = '\x7f'; // op field offset 30
        ok &= writeBytes(dir / "regress_bad_opclass", bad);
    }
    ok &= writeBytes(dir / "regress_truncated_record",
                     std::string_view(valid).substr(0, valid.size() - 5));
    ok &= writeBytes(dir / "regress_bad_magic",
                     std::string("XXXX") + valid.substr(4));
    ok &= writeBytes(dir / "regress_empty", "");
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: %s CORPUS_ROOT_DIR\n", argv[0]);
        return 2;
    }
    const fs::path root = argv[1];
    std::error_code ec;
    for (const char *sub : {"protocol", "runresult", "trace"}) {
        fs::create_directories(root / sub, ec);
        if (ec) {
            std::fprintf(stderr, "gen_corpus: cannot create %s/%s\n",
                         root.string().c_str(), sub);
            return 2;
        }
    }
    if (!genProtocol(root / "protocol") || !genRunResult(root / "runresult")
        || !genTrace(root / "trace"))
        return 2;
    std::printf("corpus written under %s\n", root.string().c_str());
    return 0;
}
