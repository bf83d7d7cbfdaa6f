#include "core/marshal.hpp"

#include "grid/grid2d.hpp"
#include "support/bytes.hpp"
#include "support/check.hpp"

namespace mg::mw {

using support::ByteReader;
using support::ByteWriter;

namespace {

void write_kernel(ByteWriter& w, const transport::SubsolveConfig& k) {
  w.write_f64(k.problem.ax);
  w.write_f64(k.problem.ay);
  w.write_f64(k.problem.eps);
  w.write_f64(k.problem.x0);
  w.write_f64(k.problem.y0);
  w.write_f64(k.problem.sigma);
  w.write_f64(k.problem.amplitude);
  w.write_i32(static_cast<std::int32_t>(k.system.scheme));
  w.write_i32(static_cast<std::int32_t>(k.system.solver));
  w.write_f64(k.system.krylov.rel_tol);
  w.write_f64(k.system.krylov.abs_tol);
  w.write_u64(k.system.krylov.max_iter);
  w.write_f64(k.le_tol);
  w.write_f64(k.t0);
  w.write_f64(k.t1);
}

transport::SubsolveConfig read_kernel(ByteReader& r) {
  transport::SubsolveConfig k;
  k.problem.ax = r.read_f64();
  k.problem.ay = r.read_f64();
  k.problem.eps = r.read_f64();
  k.problem.x0 = r.read_f64();
  k.problem.y0 = r.read_f64();
  k.problem.sigma = r.read_f64();
  k.problem.amplitude = r.read_f64();
  // Enums come off the wire as raw i32s; a corrupt byte must be rejected
  // here, not turned into an out-of-range switch downstream.
  const std::int32_t scheme = r.read_i32();
  if (scheme < 0 || scheme > static_cast<std::int32_t>(transport::AdvectionScheme::ThirdOrderKoren)) {
    throw support::DecodeError("read_kernel: advection scheme out of range");
  }
  const std::int32_t solver = r.read_i32();
  if (solver < 0 || solver > static_cast<std::int32_t>(transport::StageSolverKind::BiCgStabIlu0)) {
    throw support::DecodeError("read_kernel: stage solver out of range");
  }
  k.system.scheme = static_cast<transport::AdvectionScheme>(scheme);
  k.system.solver = static_cast<transport::StageSolverKind>(solver);
  k.system.krylov.rel_tol = r.read_f64();
  k.system.krylov.abs_tol = r.read_f64();
  k.system.krylov.max_iter = r.read_u64();
  k.le_tol = r.read_f64();
  k.t0 = r.read_f64();
  k.t1 = r.read_f64();
  return k;
}

void write_stats(ByteWriter& w, const ros::Ros2Stats& s) {
  w.write_u64(s.accepted);
  w.write_u64(s.rejected);
  w.write_u64(s.rhs_evaluations);
  w.write_u64(s.stage_preparations);
  w.write_u64(s.stage_solves);
  w.write_f64(s.final_h);
}

ros::Ros2Stats read_stats(ByteReader& r) {
  ros::Ros2Stats s;
  s.accepted = r.read_u64();
  s.rejected = r.read_u64();
  s.rhs_evaluations = r.read_u64();
  s.stage_preparations = r.read_u64();
  s.stage_solves = r.read_u64();
  s.final_h = r.read_f64();
  return s;
}

}  // namespace

std::vector<std::uint8_t> encode_work_item(const WorkItem& item) {
  ByteWriter w;
  w.write_u64(item.index);
  w.write_i32(item.root);
  w.write_i32(item.lx);
  w.write_i32(item.ly);
  write_kernel(w, item.config);
  return w.take();
}

WorkItem decode_work_item(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  WorkItem item{};
  item.index = r.read_u64();
  item.root = r.read_i32();
  item.lx = r.read_i32();
  item.ly = r.read_i32();
  item.config = read_kernel(r);
  MG_REQUIRE_MSG(r.exhausted(), "decode_work_item: trailing bytes");
  return item;
}

std::vector<std::uint8_t> encode_result_item(const ResultItem& item) {
  ByteWriter w;
  w.write_u64(item.index);
  w.write_doubles(item.node_data);
  write_stats(w, item.stats);
  w.write_f64(item.elapsed_seconds);
  return w.take();
}

ResultItem decode_result_item(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  ResultItem item{};
  item.index = r.read_u64();
  item.node_data = r.read_doubles();
  item.stats = read_stats(r);
  item.elapsed_seconds = r.read_f64();
  MG_REQUIRE_MSG(r.exhausted(), "decode_result_item: trailing bytes");
  return item;
}

std::size_t result_wire_bytes(int root, int lx, int ly) {
  const grid::Grid2D g(root, lx, ly);
  // index + array length prefix + nodes + five u64 stats + final_h + elapsed.
  return 8 + 8 + g.node_count() * 8 + 5 * 8 + 8 + 8;
}

}  // namespace mg::mw
