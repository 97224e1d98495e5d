#include "fault/fault_plan.hpp"

#include <csignal>

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "util/fnv.hpp"

namespace sdb::fault {

namespace {

/// The process-wide active plan. Relaxed loads keep the dormant-hook fast
/// path to a single uncontended atomic read.
std::atomic<FaultPlan*> g_active{nullptr};

[[noreturn]] void bad_spec(const std::string& spec, const std::string& why) {
  SDB_CHECK(false, "malformed FaultPlan spec '" + spec + "': " + why);
  std::abort();  // unreachable; SDB_CHECK(false) aborts
}

double parse_f64(const std::string& spec, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0' || text.empty()) {
    bad_spec(spec, "bad number '" + text + "'");
  }
  return v;
}

u64 parse_u64(const std::string& spec, const std::string& text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || text.empty()) {
    bad_spec(spec, "bad integer '" + text + "'");
  }
  return v;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= text.size()) {
    const size_t end = text.find(sep, start);
    if (end == std::string::npos) {
      parts.push_back(text.substr(start));
      break;
    }
    parts.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return parts;
}

/// Print a probability with enough digits to round-trip through parse().
std::string format_probability(double p) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", p);
  return buf;
}

}  // namespace

bool maybe_inject(std::string_view site) {
  FaultPlan* plan = g_active.load(std::memory_order_relaxed);
  if (plan == nullptr) return false;
  return plan->should_fire(site);
}

namespace {

/// Default crash semantics: the process dies the way `kill -9` kills it —
/// no stack unwinding, no atexit, no buffered-stdio flush. Whatever bytes
/// the kernel already has are all a restarted process will ever see.
[[noreturn]] void sigkill_handler(std::string_view /*site*/) {
  ::raise(SIGKILL);
  std::_Exit(137);  // unreachable unless SIGKILL is somehow not delivered
}

std::atomic<CrashHandler> g_crash_handler{&sigkill_handler};

}  // namespace

CrashHandler set_crash_handler(CrashHandler handler) {
  if (handler == nullptr) handler = &sigkill_handler;
  return g_crash_handler.exchange(handler, std::memory_order_acq_rel);
}

void trigger_crash(std::string_view site) {
  g_crash_handler.load(std::memory_order_acquire)(site);
  SDB_CHECK(false, "crash handler returned for site " + std::string(site));
}

void crash_point(std::string_view site) {
  if (maybe_inject(site)) trigger_crash(site);
}

FaultPlan::FaultPlan(u64 seed) : seed_(seed) {}

FaultPlan::FaultPlan(FaultPlan&& other) noexcept : seed_(other.seed_) {
  const std::scoped_lock lock(other.mu_);
  sites_ = std::move(other.sites_);
  log_ = std::move(other.log_);
  total_hits_ = other.total_hits_;
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  std::vector<std::string> clauses = split(spec, ';');
  SDB_CHECK(!clauses.empty(), "empty FaultPlan spec");

  // First clause must be the seed.
  u64 seed = 0;
  bool have_seed = false;
  std::vector<SiteSpec> sites;
  for (const std::string& clause : clauses) {
    if (clause.empty()) continue;
    if (clause.rfind("seed=", 0) == 0) {
      if (have_seed) bad_spec(spec, "duplicate seed clause");
      seed = parse_u64(spec, clause.substr(5));
      have_seed = true;
      continue;
    }
    const size_t colon = clause.find(':');
    SiteSpec site;
    site.site = clause.substr(0, colon);
    if (site.site.empty()) bad_spec(spec, "empty site name");
    if (colon != std::string::npos) {
      for (const std::string& kv : split(clause.substr(colon + 1), ',')) {
        const size_t eq = kv.find('=');
        if (eq == std::string::npos) bad_spec(spec, "missing '=' in '" + kv + "'");
        const std::string key = kv.substr(0, eq);
        const std::string value = kv.substr(eq + 1);
        if (key == "p") {
          site.probability = parse_f64(spec, value);
          if (site.probability < 0.0 || site.probability > 1.0) {
            bad_spec(spec, "probability out of [0,1]: " + value);
          }
        } else if (key == "every") {
          site.every = parse_u64(spec, value);
        } else if (key == "after") {
          site.after = parse_u64(spec, value);
        } else if (key == "budget") {
          site.budget = parse_u64(spec, value);
        } else {
          bad_spec(spec, "unknown key '" + key + "'");
        }
      }
    }
    sites.push_back(std::move(site));
  }
  if (!have_seed) bad_spec(spec, "missing seed= clause");

  FaultPlan plan(seed);
  for (SiteSpec& site : sites) plan.add_site(std::move(site));
  return plan;
}

std::string FaultPlan::spec() const {
  const std::scoped_lock lock(mu_);
  std::string out = "seed=" + std::to_string(seed_);
  for (const auto& [name, state] : sites_) {
    out += ";" + name;
    std::string keys;
    const SiteSpec& s = state.spec;
    if (s.probability != 1.0) keys += ",p=" + format_probability(s.probability);
    if (s.every != 0) keys += ",every=" + std::to_string(s.every);
    if (s.after != 0) keys += ",after=" + std::to_string(s.after);
    if (s.budget != kUnlimitedBudget) keys += ",budget=" + std::to_string(s.budget);
    // append rather than ":" + keys.substr(1): the temporary string trips
    // a false GCC 12 -Wrestrict inside basic_string.
    if (!keys.empty()) out.append(1, ':').append(keys, 1);
  }
  return out;
}

void FaultPlan::add_site(SiteSpec spec) {
  const std::scoped_lock lock(mu_);
  std::string name = spec.site;
  SDB_CHECK(!sites_.contains(name), "duplicate site: " + name);
  sites_.emplace(std::move(name), SiteState(std::move(spec), seed_));
}

bool FaultPlan::should_fire(std::string_view site) {
  const std::scoped_lock lock(mu_);
  ++total_hits_;
  const auto it = sites_.find(site);
  if (it == sites_.end()) return false;  // unnamed sites never fire
  SiteState& state = it->second;
  ++state.hits;
  if (state.hits <= state.spec.after) return false;
  if (state.fires >= state.spec.budget) return false;
  ++state.eligible_hits;
  if (state.spec.every != 0 &&
      state.eligible_hits % state.spec.every != 0) {
    return false;
  }
  if (state.spec.probability < 1.0 &&
      !state.rng.chance(state.spec.probability)) {
    return false;
  }
  ++state.fires;
  log_.push_back(FaultEvent{it->first, state.hits, state.fires});
  return true;
}

u64 FaultPlan::hits() const {
  const std::scoped_lock lock(mu_);
  return total_hits_;
}

u64 FaultPlan::fires() const {
  const std::scoped_lock lock(mu_);
  return log_.size();
}

u64 FaultPlan::hits(std::string_view site) const {
  const std::scoped_lock lock(mu_);
  const auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.hits;
}

u64 FaultPlan::fires(std::string_view site) const {
  const std::scoped_lock lock(mu_);
  const auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.fires;
}

std::vector<FaultEvent> FaultPlan::log() const {
  const std::scoped_lock lock(mu_);
  return log_;
}

u64 FaultPlan::log_digest() const {
  const std::scoped_lock lock(mu_);
  u64 h = kFnvSeed;
  for (const FaultEvent& e : log_) {
    h = fnv1a(e.site.data(), e.site.size(), h);
    h = fnv1a_value(h, e.hit);
  }
  return h;
}

void FaultPlan::install(FaultPlan* plan) {
  g_active.store(plan, std::memory_order_release);
}

FaultPlan* FaultPlan::active() {
  return g_active.load(std::memory_order_acquire);
}

}  // namespace sdb::fault
