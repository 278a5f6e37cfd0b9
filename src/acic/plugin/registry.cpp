#include "acic/plugin/registry.hpp"

#include <sstream>

namespace acic::plugin {

const char* to_string(Kind kind) {
  switch (kind) {
    case Kind::kFilesystem:
      return "filesystem";
    case Kind::kLearner:
      return "learner";
    case Kind::kFaultModel:
      return "fault-model";
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

}  // namespace acic::plugin
