// Crowdsourced, incremental training (the paper's §2 service model): the
// community contributes IOR samples over time; the shared database grows,
// the CART model is retrained, and recommendations improve — all without
// any contributor ever running the target application.
//
// This example grows the database in four increments, saves/reloads it
// through the CSV sharing format after each batch, and tracks how the
// measured quality of the top recommendation for MADbench2-64 improves,
// including a final data-aging step after a simulated platform upgrade.
// The last shared CSV stays in the temp directory as
// acic_shared_db.csv, ready for `example_acic_serve <that path>`.
#include <cstdio>
#include <filesystem>

#include "acic/apps/apps.hpp"
#include "acic/common/table.hpp"
#include "acic/core/predictor.hpp"
#include "acic/core/ranking.hpp"
#include "acic/exec/executor.hpp"
#include "acic/io/runner.hpp"

namespace {

// Measured time of the top recommendation for MADbench2-64.  Through the
// engine: batches that re-recommend the same config re-use the
// measurement.
double measured_pick_time(const acic::core::TrainingDatabase& db) {
  using namespace acic;
  const auto traits = apps::madbench2(64);
  core::Acic acic_model(db, core::Objective::kPerformance);
  const auto recs = acic_model.recommend(traits, 1);
  io::RunOptions opts;
  opts.seed = 3;
  return exec::Executor::global()
      .run(exec::RunRequest{traits, recs.front().config, opts})
      .total_time;
}

}  // namespace

int main() {
  using namespace acic;

  const auto share_path =
      (std::filesystem::temp_directory_path() / "acic_shared_db.csv")
          .string();

  std::printf("PB screening (shared by all contributors)...\n");
  const auto ranking = core::run_pb_ranking();

  core::TrainingDatabase db;
  TextTable table({"batch", "db size", "EC2 spend", "pick time (MADbench2)"});
  Money cumulative = 0.0;
  for (int batch = 1; batch <= 4; ++batch) {
    core::TrainingPlan plan;
    plan.dim_order = ranking.importance;
    plan.top_dims = 9;
    plan.max_samples = 90;
    plan.seed = 100 + static_cast<std::uint64_t>(batch);
    const auto stats = core::collect_training_data(db, plan);
    cumulative += stats.money;

    // Share: persist, then reload as a downstream user would.
    db.save(share_path);
    const auto shared = core::TrainingDatabase::load(share_path);

    table.add_row({"#" + std::to_string(batch),
                   std::to_string(shared.size()),
                   format_money(cumulative),
                   format_time(measured_pick_time(shared))});
  }

  // A platform upgrade obsoletes old measurements: age out, keep newest.
  db.age_out(db.size() / 2);
  table.add_row({"after aging", std::to_string(db.size()),
                 format_money(cumulative),
                 format_time(measured_pick_time(db))});

  std::printf("\nCrowdsourced database growth vs recommendation quality\n\n%s",
              table.to_string().c_str());
  std::printf("\nShared database written to %s\n", share_path.c_str());
  return 0;
}
