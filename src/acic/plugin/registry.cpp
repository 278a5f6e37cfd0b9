#include "acic/plugin/registry.hpp"

#include <sstream>

#include "acic/obs/metrics.hpp"

namespace acic::plugin {

const char* to_string(Kind kind) {
  switch (kind) {
    case Kind::kFilesystem:
      return "filesystem";
    case Kind::kLearner:
      return "learner";
    case Kind::kFaultModel:
      return "fault-model";
    case Kind::kPricing:
      return "pricing";
  }
  return "?";
}

namespace {

std::string describe(ErrorCode code, Kind kind, const std::string& name,
                     const std::vector<std::string>& registered) {
  std::ostringstream os;
  switch (code) {
    case ErrorCode::kDuplicateName:
      os << "duplicate " << to_string(kind) << " '" << name << "'";
      break;
    case ErrorCode::kDuplicateType:
      os << to_string(kind) << " '" << name
         << "' claims a type another plugin registered";
      break;
    case ErrorCode::kUnknownName:
      os << "unknown " << to_string(kind) << " '" << name << "'";
      break;
  }
  os << " (registered: ";
  if (registered.empty()) {
    os << "none";
  } else {
    for (std::size_t i = 0; i < registered.size(); ++i) {
      if (i > 0) os << ", ";
      os << registered[i];
    }
  }
  os << ")";
  return os.str();
}

}  // namespace

PluginError::PluginError(ErrorCode code, Kind kind, std::string name,
                         std::vector<std::string> registered)
    : Error(describe(code, kind, name, registered)),
      code_(code),
      kind_(kind),
      name_(std::move(name)),
      registered_(std::move(registered)) {}

const Knob* KnobSchema::find(std::string_view name) const {
  for (const auto& knob : knobs) {
    if (knob.name == name) return &knob;
  }
  return nullptr;
}

namespace detail {

namespace {

// Each plugin.* instrument is resolved exactly once, here — the single
// registration site the metric-registry lint rule demands.
obs::Counter& lookups_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("plugin.lookups");
  return c;
}
obs::Counter& lookup_misses_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("plugin.lookup_misses");
  return c;
}
obs::Counter& registrations_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("plugin.registrations");
  return c;
}
obs::Counter& duplicate_registrations_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("plugin.duplicate_registrations");
  return c;
}

// Written only during static init (single-threaded by [basic.start]);
// read at runtime by registration_errors().  No lock needed for that
// write-before-main / read-after-main ordering.
std::vector<std::string>& init_errors() {
  static std::vector<std::string> errors;
  return errors;
}

}  // namespace

void count_lookup() { lookups_counter().inc(); }
void count_lookup_miss() { lookup_misses_counter().inc(); }
void count_registration() { registrations_counter().inc(); }
void count_duplicate_registration() {
  duplicate_registrations_counter().inc();
}

bool register_quietly(const char* where, void (*fn)()) noexcept {
  try {
    fn();
    return true;
  } catch (const std::exception& e) {
    init_errors().push_back(std::string(where) + ": " + e.what());
  } catch (...) {
    init_errors().push_back(std::string(where) + ": unknown error");
  }
  return false;
}

}  // namespace detail

std::vector<std::string> registration_errors() {
  return detail::init_errors();
}

}  // namespace acic::plugin
