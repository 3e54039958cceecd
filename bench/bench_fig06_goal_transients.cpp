// Fig. 6: transient probabilities of the goal states of the example
// three-hop path (Fup = 7, Is = 4, pi(up) = 0.75) over the 28 uplink
// slots of one reporting interval, read off the paper's Algorithm 1
// chain (PathModel::to_dtmc) stepped slot by slot.
#include "bench_common.hpp"
#include "whart/markov/transient.hpp"

int main() {
  using namespace whart;
  using report::Table;

  bench::print_header(
      "Fig. 6 — transient probabilities of goal states (Is = 4)",
      "3-hop path, slots (3,6,7), Fup = 7, homogeneous pi(up) = 0.75");

  const hart::PathModel model(bench::example_path(4));
  const hart::SteadyStateLinks links(
      3, link::LinkModel::from_availability(0.75));
  const hart::PathTransientResult result = model.analyze(links);
  const markov::Dtmc chain = model.to_dtmc(links);
  const std::vector<linalg::Vector> trajectory =
      markov::distribution_trajectory(
          chain,
          markov::point_distribution(chain.num_states(),
                                     model.initial_state()),
          model.config().horizon());
  std::vector<markov::StateIndex> goals;
  for (std::uint32_t cycle = 1; cycle <= 4; ++cycle)
    goals.push_back(*chain.find_state(model.goal_state_name(cycle)));

  Table table({"t (slots)", "R7", "R14", "R21", "R28"});
  for (std::uint32_t t = 0; t <= 28; t += 1) {
    table.add_row({std::to_string(t),
                   Table::fixed(trajectory[t][goals[0]], 5),
                   Table::fixed(trajectory[t][goals[1]], 5),
                   Table::fixed(trajectory[t][goals[2]], 5),
                   Table::fixed(trajectory[t][goals[3]], 5)});
  }
  table.print(std::cout);

  std::cout << "\npaper data-cursor values at t = 28: R7 = 0.4219, "
               "R14 = 0.3164, R21 = 0.1582, R28 = 0.06592\n";
  std::cout << "model values at t = 28:              R7 = "
            << Table::fixed(result.cycle_probabilities[0], 5)
            << ", R14 = " << Table::fixed(result.cycle_probabilities[1], 5)
            << ", R21 = " << Table::fixed(result.cycle_probabilities[2], 5)
            << ", R28 = " << Table::fixed(result.cycle_probabilities[3], 5)
            << "\n";
  double r = 0.0;
  for (double g : result.cycle_probabilities) r += g;
  std::cout << "reachability R = " << Table::fixed(r, 5)
            << " (paper: 0.9624)\n";
  return 0;
}
