#include "exp/experiment.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <stdexcept>

#include "ip/metrics.hpp"

namespace nautilus::exp {

Experiment::Experiment(const ip::IpGenerator& generator, Query query,
                       ExperimentConfig config)
    : generator_(generator), query_(std::move(query)), config_(config)
{
    config_.ga.validate();
    if (config_.runs == 0) throw std::invalid_argument("Experiment: runs must be >= 1");
}

void Experiment::use_dataset(const ip::Dataset& dataset)
{
    dataset_ = &dataset;
}

void Experiment::add_engine(EngineSpec spec)
{
    engines_.push_back(std::move(spec));
}

void Experiment::add_standard_engines()
{
    add_engine({"baseline", GuidanceLevel::none, std::nullopt, std::nullopt});
    add_engine({"nautilus-weak", GuidanceLevel::weak, std::nullopt, std::nullopt});
    add_engine({"nautilus-strong", GuidanceLevel::strong, std::nullopt, std::nullopt});
}

void Experiment::enable_random_search(std::size_t max_distinct_evals)
{
    random_budget_ = max_distinct_evals;
}

EvalFn Experiment::make_eval() const
{
    if (dataset_ != nullptr)
        return dataset_->lookup_eval(query_.metric, query_eval(generator_, query_));
    return query_eval(generator_, query_);
}

ExperimentResult Experiment::run() const
{
    if (engines_.empty()) throw std::logic_error("Experiment::run: no engines added");

    ExperimentResult result;
    result.query = query_;
    result.config = config_;

    const EvalFn eval = make_eval();
    const HintSet base_hints = query_hints(generator_, query_);

    for (const EngineSpec& spec : engines_) {
        HintSet hints = spec.hints_override.value_or(base_hints);
        double confidence = guidance_confidence(spec.level, hints.confidence());
        if (spec.confidence_override) confidence = *spec.confidence_override;
        hints.set_confidence(confidence);

        const GaEngine engine{generator_.space(), config_.ga, query_.direction, eval, hints};
        EvalSummary summary;
        MultiRunCurve curve = engine.run_many(config_.runs, &summary);
        result.engines.emplace_back(spec, std::move(curve), summary);
    }

    if (random_budget_) {
        // Random search shares the GA's run settings -- workers, tracing,
        // fault policy and penalty, store -- so the comparison (and any
        // trace) covers both engines uniformly.
        RandomSearchConfig rc;
        static_cast<RunConfig&>(rc) = config_.ga;
        rc.fault_penalty = config_.ga.fault_penalty;
        rc.max_distinct_evals = *random_budget_;
        rc.seed = config_.ga.seed ^ 0x5eedull;
        const RandomSearch rs{generator_.space(), rc, query_.direction, eval};
        result.random_search = rs.run_many(config_.runs);
    }
    return result;
}

std::vector<double> ExperimentResult::shared_grid() const
{
    double max_evals = 0.0;
    for (const auto& e : engines) {
        for (std::size_t r = 0; r < e.curve.runs(); ++r)
            max_evals = std::max(max_evals, e.curve.run(r).final_evals());
    }
    if (random_search) {
        for (std::size_t r = 0; r < random_search->runs(); ++r)
            max_evals = std::max(max_evals, random_search->run(r).final_evals());
    }
    const std::size_t points = std::max<std::size_t>(config.grid_points, 2);
    std::vector<double> grid(points);
    for (std::size_t i = 0; i < points; ++i)
        grid[i] = max_evals * static_cast<double>(i + 1) / static_cast<double>(points);
    return grid;
}

std::vector<LabeledSeries> ExperimentResult::series() const
{
    const std::vector<double> grid = shared_grid();
    std::vector<LabeledSeries> out;
    out.reserve(engines.size() + 1);
    for (const auto& e : engines) out.push_back({e.spec.label, e.curve.mean_curve(grid)});
    if (random_search) out.push_back({"random", random_search->mean_curve(grid)});
    return out;
}

void ExperimentResult::print_convergence(std::ostream& out, double threshold,
                                         const std::string& threshold_label) const
{
    out << "  convergence to " << threshold_label << " (" << direction_name(query.direction)
        << " " << ip::metric_name(query.metric) << " to "
        << threshold << " " << ip::metric_unit(query.metric) << "):\n";

    std::optional<double> baseline_crossing;
    for (std::size_t i = 0; i < engines.size(); ++i) {
        const auto conv = engines[i].curve.evals_to_reach(threshold);
        const auto crossing = engines[i].curve.mean_curve_crossing(threshold);
        out << "    " << std::setw(18) << std::left << engines[i].spec.label;
        if (conv.reached == 0) {
            out << "never reached (0/" << conv.runs << " runs)\n";
            continue;
        }
        if (!crossing) {
            out << "mean curve never crosses; per-run mean " << std::fixed
                << std::setprecision(1) << conv.mean_evals << " designs, " << conv.reached
                << "/" << conv.runs << " runs reached\n";
            continue;
        }
        out << std::fixed << std::setprecision(1) << std::setw(8) << *crossing
            << " designs (mean curve crossing; per-run mean " << conv.mean_evals << ", "
            << conv.reached << "/" << conv.runs << " reached)";
        if (i == 0) {
            baseline_crossing = *crossing;
        }
        else if (baseline_crossing && *crossing > 0.0) {
            out << "  [" << std::setprecision(2) << *baseline_crossing / *crossing
                << "x fewer than baseline]";
        }
        out << '\n';
    }
    if (random_search) {
        const auto conv = random_search->evals_to_reach(threshold);
        out << "    " << std::setw(18) << std::left << "random";
        if (conv.reached * 2 < conv.runs)
            out << "reached in only " << conv.reached << "/" << conv.runs << " runs\n";
        else
            out << std::fixed << std::setprecision(1) << std::setw(8) << conv.mean_evals
                << " designs evaluated on average (" << conv.reached << "/" << conv.runs
                << " runs reached)\n";
    }
}

void ExperimentResult::print(std::ostream& out) const
{
    out << "== query: " << query.name << " (" << direction_name(query.direction) << " "
        << ip::metric_name(query.metric) << ", " << config.runs << " runs, pop "
        << config.ga.population_size << ", " << config.ga.generations << " generations)\n";
    const auto s = series();
    print_series_table(out, "# designs", std::string(ip::metric_name(query.metric)) + " [" +
                                              ip::metric_unit(query.metric) + "]",
                       shared_grid(), s);
    print_ascii_chart(out, query.name, s);
    for (const auto& e : engines) {
        out << "  " << std::setw(18) << std::left << e.spec.label << "final best (mean over runs): "
            << std::fixed << std::setprecision(3) << e.curve.mean_final_best() << " "
            << ip::metric_unit(query.metric) << '\n';
    }
    out << "  evaluation pipeline (" << config.ga.eval_workers << " worker"
        << (config.ga.eval_workers == 1 ? "" : "s") << "):\n";
    for (const auto& e : engines) {
        const EvalSummary& s = e.eval;
        out << "    " << std::setw(18) << std::left << e.spec.label << std::fixed
            << std::setprecision(3) << s.eval_seconds << " s eval wall-clock, "
            << s.distinct_evals << " distinct / " << s.total_calls << " calls ("
            << std::setprecision(1) << s.cache_hit_rate() * 100.0 << "% cache hits)\n";
    }
}

}  // namespace nautilus::exp
