#include "ip/dataset.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/genome_table.hpp"
#include "core/rng.hpp"

namespace nautilus::ip {

Dataset Dataset::enumerate(const IpGenerator& generator, std::size_t max_points)
{
    const auto total = generator.space().exact_cardinality();
    if (!total || *total > max_points)
        throw std::invalid_argument("Dataset::enumerate: space too large (" +
                                    std::to_string(generator.space().cardinality()) +
                                    " points)");
    Dataset ds;
    ds.entries_.reserve(*total);
    for (std::size_t rank = 0; rank < *total; ++rank) {
        Genome g = Genome::from_rank(generator.space(), rank);
        MetricValues v = generator.evaluate(g);
        ds.entries_.push_back({std::move(g), std::move(v)});
    }
    return ds;
}

Dataset Dataset::sample(const IpGenerator& generator, std::size_t count, std::uint64_t seed)
{
    const double cardinality = generator.space().cardinality();
    if (static_cast<double>(count) > cardinality)
        throw std::invalid_argument("Dataset::sample: count exceeds space cardinality");
    Dataset ds;
    ds.entries_.reserve(count);
    // Exact de-duplication: two distinct points are never merged, even if
    // their 64-bit keys collide.
    GenomeTable seen;
    seen.reset(generator.space().size());
    seen.reserve(count);
    Rng rng{seed};
    const std::size_t max_draws = count * 50 + 1000;
    for (std::size_t draw = 0; draw < max_draws && ds.entries_.size() < count; ++draw) {
        Genome g = Genome::random(generator.space(), rng);
        if (!seen.find_or_insert(g.genes()).second) continue;
        MetricValues v = generator.evaluate(g);
        ds.entries_.push_back({std::move(g), std::move(v)});
    }
    if (ds.entries_.size() < count)
        throw std::runtime_error("Dataset::sample: could not draw enough distinct points");
    return ds;
}

std::size_t Dataset::feasible_count() const
{
    std::size_t n = 0;
    for (const auto& e : entries_)
        if (e.values.feasible) ++n;
    return n;
}

const DatasetEntry& Dataset::entry(std::size_t i) const
{
    if (i >= entries_.size()) throw std::out_of_range("Dataset::entry: index out of range");
    return entries_[i];
}

const std::vector<double>& Dataset::sorted_values(Metric metric) const
{
    for (const auto& [m, values] : sorted_cache_)
        if (m == metric) return values;
    std::vector<double> values;
    values.reserve(entries_.size());
    for (const auto& e : entries_) {
        if (!e.values.feasible) continue;
        const auto v = e.values.try_get(metric);
        if (v) values.push_back(*v);
    }
    if (values.empty())
        throw std::invalid_argument(std::string("Dataset: no feasible values for metric ") +
                                    metric_name(metric));
    std::sort(values.begin(), values.end());
    sorted_cache_.emplace_back(metric, std::move(values));
    return sorted_cache_.back().second;
}

double Dataset::best(Metric metric, Direction dir) const
{
    const auto& values = sorted_values(metric);
    return dir == Direction::maximize ? values.back() : values.front();
}

const DatasetEntry& Dataset::best_entry(Metric metric, Direction dir) const
{
    const DatasetEntry* best = nullptr;
    for (const auto& e : entries_) {
        if (!e.values.feasible) continue;
        const auto v = e.values.try_get(metric);
        if (!v) continue;
        if (best == nullptr || !no_worse(best->values.get(metric), *v, dir)) best = &e;
    }
    if (best == nullptr)
        throw std::invalid_argument("Dataset::best_entry: no feasible values");
    return *best;
}

double Dataset::percentile_threshold(Metric metric, Direction dir,
                                     double top_fraction) const
{
    if (top_fraction <= 0.0 || top_fraction > 1.0)
        throw std::invalid_argument("Dataset::percentile_threshold: fraction out of (0, 1]");
    const auto& values = sorted_values(metric);
    const std::size_t n = values.size();
    std::size_t k = static_cast<std::size_t>(std::ceil(top_fraction * static_cast<double>(n)));
    k = std::clamp<std::size_t>(k, 1, n);
    // k best values: largest k (maximize) or smallest k (minimize).
    return dir == Direction::maximize ? values[n - k] : values[k - 1];
}

double Dataset::quality_percent(Metric metric, Direction dir, double value) const
{
    const auto& values = sorted_values(metric);
    const auto n = static_cast<double>(values.size());
    if (dir == Direction::maximize) {
        // Points with metric <= value are tied-or-beaten.
        const auto it = std::upper_bound(values.begin(), values.end(), value);
        return 100.0 * static_cast<double>(it - values.begin()) / n;
    }
    const auto it = std::lower_bound(values.begin(), values.end(), value);
    return 100.0 * static_cast<double>(values.end() - it) / n;
}

double Dataset::hit_fraction(Metric metric, Direction dir, double value) const
{
    const auto& values = sorted_values(metric);
    const auto n = static_cast<double>(values.size());
    if (dir == Direction::maximize) {
        const auto it = std::lower_bound(values.begin(), values.end(), value);
        return static_cast<double>(values.end() - it) / n;
    }
    const auto it = std::upper_bound(values.begin(), values.end(), value);
    return static_cast<double>(it - values.begin()) / n;
}

EvalFn Dataset::lookup_eval(Metric metric, EvalFn fallback) const
{
    // Build the index once, shared by all copies of the returned closure:
    // the table maps a genome to its row, `evals` holds each row's value.
    struct Index {
        GenomeTable table;
        std::vector<Evaluation> evals;
    };
    auto index = std::make_shared<Index>();
    if (!entries_.empty()) index->table.reset(entries_.front().genome.size());
    index->table.reserve(entries_.size());
    index->evals.reserve(entries_.size());
    for (const auto& e : entries_) {
        Evaluation eval{false, 0.0};
        if (e.values.feasible) {
            const auto v = e.values.try_get(metric);
            if (v) eval = Evaluation{true, *v};
        }
        // A repeated genome keeps its first entry's value.
        if (index->table.find_or_insert(e.genome.genes()).second) index->evals.push_back(eval);
    }
    return [index = std::shared_ptr<const Index>{std::move(index)},
            fallback](const Genome& g) -> Evaluation {
        const std::uint32_t row = index->table.find(g.genes());
        if (row != GenomeTable::npos) return index->evals[row];
        if (fallback) return fallback(g);
        return Evaluation{false, 0.0};
    };
}

void Dataset::save_csv(std::ostream& out, const IpGenerator& generator) const
{
    const ParameterSpace& space = generator.space();
    const std::vector<Metric> metrics = generator.metrics();
    for (std::size_t i = 0; i < space.size(); ++i) out << space[i].name << ';';
    out << "feasible";
    for (Metric m : metrics) out << ';' << metric_name(m);
    out << '\n';
    out.precision(10);
    for (const auto& e : entries_) {
        for (std::size_t i = 0; i < space.size(); ++i) out << e.genome.gene(i) << ';';
        out << (e.values.feasible ? 1 : 0);
        for (Metric m : metrics) {
            out << ';';
            const auto v = e.values.try_get(m);
            if (v) out << *v;
        }
        out << '\n';
    }
}

namespace {

// A whole-cell number: std::from_chars must consume every byte.
template <class T>
bool parse_cell(const std::string& cell, T& out)
{
    const char* const end = cell.data() + cell.size();
    const auto [ptr, ec] = std::from_chars(cell.data(), end, out);
    return ec == std::errc{} && ptr == end;
}

}  // namespace

Dataset Dataset::load_csv(std::istream& in, const IpGenerator& generator)
{
    const ParameterSpace& space = generator.space();
    const std::vector<Metric> metrics = generator.metrics();
    std::string line;
    if (!std::getline(in, line)) throw std::runtime_error("Dataset::load_csv: empty stream");

    Dataset ds;
    std::size_t row_number = 1;  // the header is row 1
    while (std::getline(in, line)) {
        ++row_number;
        if (line.empty()) continue;
        const auto bad_cell = [row_number](const std::string& cell) {
            return std::runtime_error("Dataset::load_csv: row " + std::to_string(row_number) +
                                      ": bad cell '" + cell + "'");
        };
        std::stringstream row{line};
        std::string cell;
        std::vector<std::uint32_t> genes(space.size());
        for (std::size_t i = 0; i < space.size(); ++i) {
            if (!std::getline(row, cell, ';'))
                throw std::runtime_error("Dataset::load_csv: truncated row");
            if (!parse_cell(cell, genes[i])) throw bad_cell(cell);
        }
        if (!std::getline(row, cell, ';'))
            throw std::runtime_error("Dataset::load_csv: missing feasible flag");
        if (cell != "0" && cell != "1") throw bad_cell(cell);
        MetricValues values;
        values.feasible = cell == "1";
        for (Metric m : metrics) {
            if (!std::getline(row, cell, ';')) break;
            if (cell.empty()) continue;
            double v = 0.0;
            if (!parse_cell(cell, v) || !std::isfinite(v)) throw bad_cell(cell);
            values.set(m, v);
        }
        Genome g{std::move(genes)};
        if (!g.compatible_with(space))
            throw std::runtime_error("Dataset::load_csv: genome incompatible with space");
        ds.entries_.push_back({std::move(g), std::move(values)});
    }
    return ds;
}

}  // namespace nautilus::ip
