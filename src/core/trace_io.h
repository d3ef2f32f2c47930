// CSV export/import of simulation traces, for plotting the figures outside
// the harness (gnuplot/matplotlib) and for archiving runs. The readers
// round-trip what the writers emit (used by tests and by tooling that
// post-processes stored traces).
#pragma once

#include <istream>
#include <ostream>
#include <vector>

#include "core/simulation.h"

namespace cpm::core {

/// Row-level writers, used by the bulk writers below and by the streaming
/// record sink (which emits one row per record as the run produces it).
void write_pic_trace_header(std::ostream& os);
void write_pic_trace_row(std::ostream& os, const PicIntervalRecord& r);
/// `num_islands` == 0 writes the bare 5-column header (empty-trace case).
void write_gpm_trace_header(std::ostream& os, std::size_t num_islands);
void write_gpm_trace_row(std::ostream& os, const GpmIntervalRecord& r);

/// JSONL variants: one self-describing JSON object per line, no header.
/// JSON has no NaN or infinity, so non-finite values are written as the
/// strings "nan", "inf" and "-inf".
void write_pic_record_jsonl(std::ostream& os, const PicIntervalRecord& r);
void write_gpm_record_jsonl(std::ostream& os, const GpmIntervalRecord& r);

/// One row per (PIC interval, island):
/// time_s,island,target_w,sensed_w,actual_w,utilization,bips,freq_ghz,level
void write_pic_trace_csv(std::ostream& os,
                         const std::vector<PicIntervalRecord>& records);

/// One row per GPM interval with per-island alloc/actual columns:
/// time_s,chip_budget_w,chip_actual_w,chip_bips,max_temp_c,
/// alloc_0..alloc_{n-1},actual_0..actual_{n-1}
void write_gpm_trace_csv(std::ostream& os,
                         const std::vector<GpmIntervalRecord>& records);

/// Run-level summary as key,value rows.
void write_summary_csv(std::ostream& os, const SimulationResult& result);

/// Parses a PIC trace written by write_pic_trace_csv. Throws
/// std::runtime_error on malformed input.
std::vector<PicIntervalRecord> read_pic_trace_csv(std::istream& is);

/// Parses a GPM trace written by write_gpm_trace_csv. Throws
/// std::runtime_error on malformed input.
std::vector<GpmIntervalRecord> read_gpm_trace_csv(std::istream& is);

/// Parses a JSONL trace written by write_pic_record_jsonl (one object per
/// line; lines whose "type" is not "pic" are skipped, so a mixed stream is
/// accepted). Writers emit max_digits10 precision, so every serialized field
/// round-trips bit-exactly. Throws std::runtime_error on malformed input.
std::vector<PicIntervalRecord> read_pic_trace_jsonl(std::istream& is);

/// JSONL counterpart of read_gpm_trace_csv (skips non-"gpm" lines). Fields
/// the format does not carry (island_bips) come back empty, exactly like the
/// CSV reader.
std::vector<GpmIntervalRecord> read_gpm_trace_jsonl(std::istream& is);

}  // namespace cpm::core
