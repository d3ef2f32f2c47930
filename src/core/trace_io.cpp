#include "core/trace_io.h"

#include <charconv>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/json.h"

namespace cpm::core {

namespace {

constexpr char kPicHeader[] =
    "time_s,island,target_w,sensed_w,actual_w,utilization,bips,freq_ghz,level";

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream ss(line);
  while (std::getline(ss, cell, ',')) cells.push_back(cell);
  return cells;
}

/// Parses the whole cell as a T (double, or std::size_t for counts, which
/// takes no sign and no fraction); anything left over is malformed.
template <typename T>
T parse_cell(std::string_view s, const char* context) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || ptr != end) {
    throw std::runtime_error(std::string("trace_io: bad number in ") +
                             context + ": '" + std::string(s) + "'");
  }
  return v;
}

/// A double in a JSONL record. JSON has no NaN or infinity, so non-finite
/// values are written as the strings "nan", "inf" and "-inf" (json_double
/// reads them back).
struct JsonNum {
  double v;
};

std::ostream& operator<<(std::ostream& os, JsonNum n) {
  if (std::isfinite(n.v)) return os << n.v;
  if (std::isnan(n.v)) return os << "\"nan\"";
  return os << (n.v > 0.0 ? "\"inf\"" : "\"-inf\"");
}

const util::json::Value& json_at(const util::json::Value& record,
                                 std::string_view key) {
  const util::json::Value* v = record.is_object() ? record.find(key) : nullptr;
  if (v == nullptr) {
    throw std::runtime_error("trace_io: missing JSON key " + std::string(key));
  }
  return *v;
}

/// A JSON number, or one of the strings JsonNum writes for non-finite values.
double json_double(const util::json::Value& v, std::string_view key) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (v.is_number()) return v.number;
  if (v.is_string() && v.string == "inf") return kInf;
  if (v.is_string() && v.string == "-inf") return -kInf;
  if (v.is_string() && v.string == "nan") {
    return std::numeric_limits<double>::quiet_NaN();
  }
  throw std::runtime_error("trace_io: bad number in JSON key " +
                           std::string(key));
}

/// A non-negative integer below 2^53 (exact in a double).
std::size_t json_count(const util::json::Value& record, std::string_view key) {
  const util::json::Value& v = json_at(record, key);
  if (!v.is_number() || !(v.number >= 0.0) || v.number > 0x1p53 ||
      v.number != std::floor(v.number)) {
    throw std::runtime_error("trace_io: bad count in JSON key " +
                             std::string(key));
  }
  return static_cast<std::size_t>(v.number);
}

std::vector<double> json_doubles(const util::json::Value& record,
                                 std::string_view key) {
  const util::json::Value& v = json_at(record, key);
  if (!v.is_array()) {
    throw std::runtime_error("trace_io: JSON key " + std::string(key) +
                             " is not an array");
  }
  std::vector<double> values;
  for (const auto& e : v.array) values.push_back(json_double(e, key));
  return values;
}

}  // namespace

void write_pic_trace_header(std::ostream& os) { os << kPicHeader << '\n'; }

void write_pic_trace_row(std::ostream& os, const PicIntervalRecord& r) {
  os << std::setprecision(17);
  os << r.time_s << ',' << r.island << ',' << r.target_w << ','
     << r.sensed_w << ',' << r.actual_w << ',' << r.utilization << ','
     << r.bips << ',' << r.freq_ghz << ',' << r.dvfs_level << '\n';
}

void write_gpm_trace_header(std::ostream& os, std::size_t num_islands) {
  os << "time_s,chip_budget_w,chip_actual_w,chip_bips,max_temp_c";
  for (std::size_t i = 0; i < num_islands; ++i) os << ",alloc_" << i;
  for (std::size_t i = 0; i < num_islands; ++i) os << ",actual_" << i;
  os << '\n';
}

void write_gpm_trace_row(std::ostream& os, const GpmIntervalRecord& r) {
  os << std::setprecision(17);
  os << r.time_s << ',' << r.chip_budget_w << ',' << r.chip_actual_w << ','
     << r.chip_bips << ',' << r.max_temp_c;
  for (const double a : r.island_alloc_w) os << ',' << a;
  for (const double a : r.island_actual_w) os << ',' << a;
  os << '\n';
}

void write_pic_record_jsonl(std::ostream& os, const PicIntervalRecord& r) {
  os << std::setprecision(17);
  os << "{\"type\":\"pic\",\"time_s\":" << JsonNum{r.time_s}
     << ",\"island\":" << r.island << ",\"target_w\":" << JsonNum{r.target_w}
     << ",\"sensed_w\":" << JsonNum{r.sensed_w}
     << ",\"actual_w\":" << JsonNum{r.actual_w}
     << ",\"utilization\":" << JsonNum{r.utilization}
     << ",\"bips\":" << JsonNum{r.bips}
     << ",\"freq_ghz\":" << JsonNum{r.freq_ghz}
     << ",\"level\":" << r.dvfs_level << "}\n";
}

void write_gpm_record_jsonl(std::ostream& os, const GpmIntervalRecord& r) {
  os << std::setprecision(17);
  os << "{\"type\":\"gpm\",\"time_s\":" << JsonNum{r.time_s}
     << ",\"chip_budget_w\":" << JsonNum{r.chip_budget_w}
     << ",\"chip_actual_w\":" << JsonNum{r.chip_actual_w}
     << ",\"chip_bips\":" << JsonNum{r.chip_bips}
     << ",\"max_temp_c\":" << JsonNum{r.max_temp_c} << ",\"alloc_w\":[";
  for (std::size_t i = 0; i < r.island_alloc_w.size(); ++i) {
    os << (i ? "," : "") << JsonNum{r.island_alloc_w[i]};
  }
  os << "],\"actual_w\":[";
  for (std::size_t i = 0; i < r.island_actual_w.size(); ++i) {
    os << (i ? "," : "") << JsonNum{r.island_actual_w[i]};
  }
  os << "]}\n";
}

void write_pic_trace_csv(std::ostream& os,
                         const std::vector<PicIntervalRecord>& records) {
  write_pic_trace_header(os);
  for (const auto& r : records) write_pic_trace_row(os, r);
}

void write_gpm_trace_csv(std::ostream& os,
                         const std::vector<GpmIntervalRecord>& records) {
  write_gpm_trace_header(
      os, records.empty() ? 0 : records.front().island_alloc_w.size());
  for (const auto& r : records) write_gpm_trace_row(os, r);
}

void write_summary_csv(std::ostream& os, const SimulationResult& result) {
  os << std::setprecision(17);
  os << "key,value\n"
     << "duration_s," << result.duration_s << '\n'
     << "max_chip_power_w," << result.max_chip_power_w << '\n'
     << "budget_w," << result.budget_w << '\n'
     << "avg_chip_power_w," << result.avg_chip_power_w << '\n'
     << "avg_chip_bips," << result.avg_chip_bips << '\n'
     << "total_instructions," << result.total_instructions << '\n'
     << "hotspot_fraction," << result.hotspot_fraction << '\n'
     << "dvfs_transitions," << result.dvfs_transitions << '\n';
  for (std::size_t i = 0; i < result.island_instructions.size(); ++i) {
    os << "island_" << i << "_instructions," << result.island_instructions[i]
       << '\n';
    os << "island_" << i << "_energy_j," << result.island_energy_j[i] << '\n';
  }
}

std::vector<PicIntervalRecord> read_pic_trace_csv(std::istream& is) {
  std::vector<PicIntervalRecord> records;
  std::string line;
  if (!std::getline(is, line)) {
    throw std::runtime_error("trace_io: empty PIC trace");
  }
  if (line != kPicHeader) throw std::runtime_error("trace_io: bad PIC header");
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto cells = split_csv_line(line);
    if (cells.size() != 9) {
      throw std::runtime_error("trace_io: bad PIC row arity");
    }
    PicIntervalRecord r;
    r.time_s = parse_cell<double>(cells[0], "pic.time_s");
    r.island = parse_cell<std::size_t>(cells[1], "pic.island");
    r.target_w = parse_cell<double>(cells[2], "pic.target_w");
    r.sensed_w = parse_cell<double>(cells[3], "pic.sensed_w");
    r.actual_w = parse_cell<double>(cells[4], "pic.actual_w");
    r.utilization = parse_cell<double>(cells[5], "pic.utilization");
    r.bips = parse_cell<double>(cells[6], "pic.bips");
    r.freq_ghz = parse_cell<double>(cells[7], "pic.freq_ghz");
    r.dvfs_level = parse_cell<std::size_t>(cells[8], "pic.level");
    records.push_back(r);
  }
  return records;
}

std::vector<GpmIntervalRecord> read_gpm_trace_csv(std::istream& is) {
  std::vector<GpmIntervalRecord> records;
  std::string line;
  if (!std::getline(is, line)) {
    throw std::runtime_error("trace_io: empty GPM trace");
  }
  const std::size_t columns = split_csv_line(line).size();
  const std::size_t n = columns > 5 ? (columns - 5) / 2 : 0;
  std::ostringstream expected;
  write_gpm_trace_header(expected, n);
  if (line + '\n' != expected.str()) {
    throw std::runtime_error("trace_io: bad GPM header");
  }
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto cells = split_csv_line(line);
    if (cells.size() != 5 + 2 * n) {
      throw std::runtime_error("trace_io: bad GPM row arity");
    }
    GpmIntervalRecord r;
    r.time_s = parse_cell<double>(cells[0], "gpm.time_s");
    r.chip_budget_w = parse_cell<double>(cells[1], "gpm.budget");
    r.chip_actual_w = parse_cell<double>(cells[2], "gpm.actual");
    r.chip_bips = parse_cell<double>(cells[3], "gpm.bips");
    r.max_temp_c = parse_cell<double>(cells[4], "gpm.temp");
    for (std::size_t i = 0; i < n; ++i) {
      r.island_alloc_w.push_back(parse_cell<double>(cells[5 + i], "gpm.alloc"));
    }
    for (std::size_t i = 0; i < n; ++i) {
      r.island_actual_w.push_back(
          parse_cell<double>(cells[5 + n + i], "gpm.island"));
    }
    records.push_back(std::move(r));
  }
  return records;
}

std::vector<PicIntervalRecord> read_pic_trace_jsonl(std::istream& is) {
  std::vector<PicIntervalRecord> records;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const util::json::Value rec = util::json::parse(line);
    if (json_at(rec, "type").string != "pic") continue;
    const auto num = [&rec](std::string_view key) {
      return json_double(json_at(rec, key), key);
    };
    PicIntervalRecord r;
    r.time_s = num("time_s");
    r.island = json_count(rec, "island");
    r.target_w = num("target_w");
    r.sensed_w = num("sensed_w");
    r.actual_w = num("actual_w");
    r.utilization = num("utilization");
    r.bips = num("bips");
    r.freq_ghz = num("freq_ghz");
    r.dvfs_level = json_count(rec, "level");
    records.push_back(r);
  }
  return records;
}

std::vector<GpmIntervalRecord> read_gpm_trace_jsonl(std::istream& is) {
  std::vector<GpmIntervalRecord> records;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const util::json::Value rec = util::json::parse(line);
    if (json_at(rec, "type").string != "gpm") continue;
    const auto num = [&rec](std::string_view key) {
      return json_double(json_at(rec, key), key);
    };
    GpmIntervalRecord r;
    r.time_s = num("time_s");
    r.chip_budget_w = num("chip_budget_w");
    r.chip_actual_w = num("chip_actual_w");
    r.chip_bips = num("chip_bips");
    r.max_temp_c = num("max_temp_c");
    r.island_alloc_w = json_doubles(rec, "alloc_w");
    r.island_actual_w = json_doubles(rec, "actual_w");
    records.push_back(std::move(r));
  }
  return records;
}

}  // namespace cpm::core
