// Figure 10: the user study — manual configurations chosen by an
// experienced mpiBLAST user and a core developer (single pick, and
// best-of-top-3 after seeing §5.6's insights) vs ACIC, for both
// optimization goals at three scales.
#include <cstdio>

#include <string_view>

#include "acic/common/table.hpp"
#include "acic/core/manual.hpp"
#include "support.hpp"

int main() {
  using namespace acic;

  const auto& gt = benchsup::ground_truth();
  const auto& db = benchsup::training_db(12, 1200);

  for (auto objective :
       {core::Objective::kPerformance, core::Objective::kCost}) {
    core::Acic acic(db, objective);
    // The bundled low-variance ensemble, shown alongside the paper's
    // CART (§4.2 invites plugging in other learners).
    core::Acic forest(db, objective, std::string_view("forest"));

    TextTable table(
        {"NP", "User", "User3", "Dev", "Dev3", "ACIC", "ACIC(forest)"});
    for (int np : {32, 64, 128}) {
      const apps::AppRun run{"mpiBLAST", np, apps::mpiblast(np)};
      const auto& ms = gt.at(benchsup::app_key(run.app, run.scale));
      const double base = benchsup::value_of(benchsup::baseline(ms),
                                             objective);
      auto improvement = [&](double v) {
        return TextTable::num(100.0 * (base - v) / base, 0) + "%";
      };
      auto measure_best = [&](const std::vector<cloud::IoConfig>& cfgs) {
        double best = 1e300;
        for (const auto& c : cfgs) {
          best = std::min(
              best, benchsup::value_of(benchsup::measure(run, c), objective));
        }
        return best;
      };
      const double user = measure_best(
          {core::user_choice(run.workload, objective)});
      const double user3 =
          measure_best(core::user_top3(run.workload, objective));
      const double dev = measure_best(
          {core::developer_choice(run.workload, objective)});
      const double dev3 =
          measure_best(core::developer_top3(run.workload, objective));
      const double acic_v = benchsup::value_of(
          benchsup::measured_top_choice(acic, run, objective), objective);
      const double forest_v = benchsup::value_of(
          benchsup::measured_top_choice(forest, run, objective), objective);
      table.add_row({std::to_string(np), improvement(user),
                     improvement(user3), improvement(dev),
                     improvement(dev3), improvement(acic_v),
                     improvement(forest_v)});
    }
    std::printf(
        "=== Figure 10 (%s objective): manual vs ACIC on mpiBLAST ===\n"
        "(improvement over baseline; User3/Dev3 = best of their top-3)\n\n"
        "%s\n",
        core::to_string(objective), table.to_string().c_str());
  }
  std::printf(
      "Expected shape (paper): ACIC consistently >= the human experts;\n"
      "the developer beats the user; top-3 manual picks narrow but do\n"
      "not close the gap.\n");
  return 0;
}
