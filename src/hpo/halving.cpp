#include "hpo/halving.hpp"

#include <algorithm>
#include <memory>

#include "support/check.hpp"
#include "support/parallel_for.hpp"

namespace peachy::hpo {

HalvingResult successive_halving(const nn::Dataset& train, const nn::Dataset& val,
                                 const std::vector<nn::TrainConfig>& configs,
                                 std::size_t rounds, std::size_t epochs_per_round,
                                 support::ThreadPool& pool) {
  PEACHY_CHECK(!configs.empty(), "halving: no configurations");
  PEACHY_CHECK(rounds >= 1, "halving: need at least one round");
  PEACHY_CHECK(epochs_per_round >= 1, "halving: need at least one epoch per round");

  HalvingResult out;
  out.history.resize(configs.size());

  // Live models, one per config, trained incrementally round by round.
  struct Live {
    std::size_t config;
    std::unique_ptr<nn::Mlp> model;
    double accuracy = 0.0;
  };
  std::vector<Live> live;
  live.reserve(configs.size());
  for (std::size_t c = 0; c < configs.size(); ++c) {
    out.history[c].config = c;
    nn::TrainConfig cfg = configs[c];
    cfg.epochs = epochs_per_round;  // each call to train() = one round
    live.push_back({c, std::make_unique<nn::Mlp>(train.features(), train.classes, cfg), 0.0});
  }

  for (std::size_t round = 0; round < rounds && !live.empty(); ++round) {
    ++out.rounds;
    // Train all survivors for this round's budget, in parallel.  Grain 0:
    // each iteration is a whole training round — always worth a task, no
    // matter how few survivors remain.
    support::parallel_for(
        pool, 0, live.size(),
        [&](std::size_t i) {
          (void)live[i].model->train(train);
          live[i].accuracy = live[i].model->accuracy(val);
        },
        /*grain=*/0);
    out.total_epochs_trained += live.size() * epochs_per_round;
    for (const Live& m : live) out.history[m.config].accuracy_per_round.push_back(m.accuracy);

    if (live.size() == 1 || round + 1 == rounds) break;
    // Kill the bottom half (ties: lower config id survives).
    std::sort(live.begin(), live.end(), [](const Live& a, const Live& b) {
      if (a.accuracy != b.accuracy) return a.accuracy > b.accuracy;
      return a.config < b.config;
    });
    const std::size_t keep = (live.size() + 1) / 2;
    live.resize(keep);
    // Restore config order so the next parallel round is deterministic.
    std::sort(live.begin(), live.end(),
              [](const Live& a, const Live& b) { return a.config < b.config; });
  }

  // Final ranking: survivors by last accuracy (ties: lower id).
  std::sort(live.begin(), live.end(), [](const Live& a, const Live& b) {
    if (a.accuracy != b.accuracy) return a.accuracy > b.accuracy;
    return a.config < b.config;
  });
  for (const Live& m : live) {
    out.final_ranking.push_back(m.config);
    out.history[m.config].survived_to_end = true;
  }
  return out;
}

}  // namespace peachy::hpo
