#include <algorithm>
#include <map>

#include "wallbench/wallbench.h"

namespace wallbench {

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Quantile(std::vector<uint32_t>& v, double q) {
  if (v.empty()) {
    return 0;
  }
  size_t k = std::min(v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

uint32_t Tracer::Intern(const std::string& name) {
  auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) {
    return static_cast<uint32_t>(it - names_.begin());
  }
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

int32_t Tracer::Add(uint32_t name, uint64_t req, int32_t parent, uint64_t start_ns,
                    uint64_t end_ns) {
  if (spans_.size() >= capacity_) {
    return -1;
  }
  spans_.push_back(Span{req, parent, name, start_ns, end_ns});
  return static_cast<int32_t>(spans_.size() - 1);
}

std::vector<uint32_t> Tracer::Durations(const std::string& name) const {
  std::vector<uint32_t> out;
  auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end()) {
    return out;
  }
  uint32_t id = static_cast<uint32_t>(it - names_.begin());
  for (const Span& s : spans_) {
    if (s.name == id) {
      out.push_back(static_cast<uint32_t>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

bool Tracer::WriteTsv(const std::string& path, const std::string& header) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "# %s\n# req\tspan\tparent\tname\tstart_ns\tend_ns\n", header.c_str());
  for (size_t i = 0; i < spans_.size(); i++) {
    const Span& s = spans_[i];
    std::fprintf(f, "%llu\t%zu\t%d\t%s\t%llu\t%llu\n",
                 static_cast<unsigned long long>(s.req), i, s.parent,
                 names_[s.name].c_str(), static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) {
    return;
  }
  correct = false;
  // Keep the first few distinct failures; one broken invariant tends to
  // repeat on every request.
  if (errors.size() < 20) {
    errors.push_back(what);
  }
}

void E2e::Publish(Report& r) const {
  r.Check(!chunk_ops_per_s.empty() && !chunk_p50_us.empty() && !chunk_p99_us.empty() &&
              !setup_s.empty(),
          "an end-to-end metric has no sample");
  r.Set("ops_per_s", Median(chunk_ops_per_s), "1/s");
  r.Set("p50_us", Median(chunk_p50_us), "us");
  r.Set("p99_us", Median(chunk_p99_us), "us");
  r.Set("setup_s", Median(setup_s), "s");
}

}  // namespace wallbench
