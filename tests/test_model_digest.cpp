// Model outputs pinned absolutely.  Each generator's evaluate() is digested
// over a fixed set of design points: every enumerated point of the router
// space and of the FFT space (SNR off, which leaves the pure analytic
// model), and a seeded sample of the network space.  Per point the digest
// takes the feasible flag, then for each metric in metrics() order a
// presence flag and the bit pattern of the value.  A refactor of the models
// or of MetricValues must leave every constant unchanged; a deliberate model
// change replaces them from the failure message and says so in CHANGES.md.

#include <bit>
#include <cstdint>
#include <cstdio>

#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "fft/fft_generator.hpp"
#include "noc/network_generator.hpp"
#include "noc/router_generator.hpp"

namespace nautilus {
namespace {

// FNV-1a over 64-bit words, fed byte by byte in little-endian order.
class Digest {
public:
    void u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) h_ = (h_ ^ ((v >> (8 * i)) & 0xffu)) * 0x100000001b3ull;
    }
    void point(const ip::IpGenerator& generator, const Genome& genome)
    {
        const ip::MetricValues values = generator.evaluate(genome);
        u64(values.feasible ? 1 : 0);
        for (const ip::Metric m : generator.metrics()) {
            const auto v = values.try_get(m);
            u64(v ? 1 : 0);
            if (v) u64(std::bit_cast<std::uint64_t>(*v));
        }
        ++points_;
    }
    std::uint64_t value() const { return h_; }
    std::size_t points() const { return points_; }

private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
    std::size_t points_ = 0;
};

Digest digest_space(const ip::IpGenerator& generator)
{
    Digest d;
    const std::size_t total = generator.space().exact_cardinality().value();
    for (std::size_t rank = 0; rank < total; ++rank)
        d.point(generator, Genome::from_rank(generator.space(), rank));
    return d;
}

std::string hex(std::uint64_t v)
{
    char word[32];
    std::snprintf(word, sizeof word, "0x%016llxull", static_cast<unsigned long long>(v));
    return word;
}

TEST(ModelDigest, RouterSpaceIsPinned)
{
    const noc::RouterGenerator generator;
    const Digest d = digest_space(generator);
    EXPECT_EQ(d.points(), 34560u);
    EXPECT_EQ(d.value(), 0xec427bb2eb5d3608ull) << "fresh digest: " << hex(d.value());
}

TEST(ModelDigest, FftSpaceWithoutSnrIsPinned)
{
    const fft::FftGenerator generator{synth::FpgaTech::virtex6_lx760t(),
                                      /*measure_snr=*/false};
    const Digest d = digest_space(generator);
    EXPECT_EQ(d.points(), 18900u);
    EXPECT_EQ(d.value(), 0x9fedf9bc253fa5edull) << "fresh digest: " << hex(d.value());
}

TEST(ModelDigest, NetworkSampleIsPinned)
{
    const noc::NetworkGenerator generator;
    Digest d;
    Rng rng{0x6e6f63};
    for (int i = 0; i < 400; ++i) d.point(generator, Genome::random(generator.space(), rng));
    EXPECT_EQ(d.points(), 400u);
    EXPECT_EQ(d.value(), 0xa468433dfa4a0ae8ull) << "fresh digest: " << hex(d.value());
}

}  // namespace
}  // namespace nautilus
