#include "obs/metrics.hpp"

#include <bit>
#include <cinttypes>
#include <cstdio>

#include "common/log.hpp"

namespace phastlane::obs {

HdrHistogram::HdrHistogram()
    : buckets_(static_cast<size_t>(kTiers) * kSubBuckets, 0)
{
}

size_t
HdrHistogram::bucketOf(uint64_t value)
{
    if (value < kSubBuckets)
        return static_cast<size_t>(value);
    const int msb = std::bit_width(value) - 1; // >= 4 here
    int tier = msb - 3;
    if (tier >= kTiers) {
        // Values beyond the covered range land in the last bucket.
        return static_cast<size_t>(kTiers) * kSubBuckets - 1;
    }
    const uint64_t sub = (value >> (msb - 4)) & (kSubBuckets - 1);
    return static_cast<size_t>(tier) * kSubBuckets +
           static_cast<size_t>(sub);
}

uint64_t
HdrHistogram::bucketUpperEdge(size_t b)
{
    const size_t tier = b / kSubBuckets;
    const uint64_t sub = b % kSubBuckets;
    if (tier == 0)
        return sub;
    return ((kSubBuckets + sub + 1) << (tier - 1)) - 1;
}

void
HdrHistogram::record(uint64_t value)
{
    recordN(value, 1);
}

void
HdrHistogram::recordN(uint64_t value, uint64_t times)
{
    if (times == 0)
        return;
    buckets_[bucketOf(value)] += times;
    count_ += times;
    sum_ += value * times;
    if (value < min_)
        min_ = value;
    if (value > max_)
        max_ = value;
}

double
HdrHistogram::mean() const
{
    return count_ ? static_cast<double>(sum_) /
                        static_cast<double>(count_)
                  : 0.0;
}

uint64_t
HdrHistogram::quantile(double q) const
{
    if (count_ == 0)
        return 0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    uint64_t target =
        static_cast<uint64_t>(q * static_cast<double>(count_) + 0.5);
    if (target == 0)
        target = 1;
    uint64_t seen = 0;
    for (size_t b = 0; b < buckets_.size(); ++b) {
        seen += buckets_[b];
        if (seen >= target) {
            // Clamp the bucket edge to the observed extremes so small
            // sample sets report exact values.
            const uint64_t edge = bucketUpperEdge(b);
            return edge > max_ ? max_ : edge;
        }
    }
    return max_;
}

void
HdrHistogram::merge(const HdrHistogram &other)
{
    for (size_t b = 0; b < buckets_.size(); ++b)
        buckets_[b] += other.buckets_[b];
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.count_) {
        if (other.min_ < min_)
            min_ = other.min_;
        if (other.max_ > max_)
            max_ = other.max_;
    }
}

namespace {

template <typename T>
T &
getOrCreate(std::deque<T> &store, std::map<std::string, size_t> &index,
            std::vector<std::string> &order, const std::string &name)
{
    const auto it = index.find(name);
    if (it != index.end())
        return store[it->second];
    index.emplace(name, store.size());
    order.push_back(name);
    store.emplace_back();
    return store.back();
}

template <typename T>
const T *
find(const std::deque<T> &store,
     const std::map<std::string, size_t> &index,
     const std::string &name)
{
    const auto it = index.find(name);
    return it == index.end() ? nullptr : &store[it->second];
}

void
appendEscaped(std::string &out, const std::string &s)
{
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
}

} // namespace

Counter &
MetricsRegistry::counter(const std::string &name)
{
    return getOrCreate(counters_, counterIndex_, counterOrder_, name);
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    return getOrCreate(gauges_, gaugeIndex_, gaugeOrder_, name);
}

HdrHistogram &
MetricsRegistry::histogram(const std::string &name)
{
    return getOrCreate(histograms_, histogramIndex_, histogramOrder_,
                       name);
}

const Counter *
MetricsRegistry::findCounter(const std::string &name) const
{
    return find(counters_, counterIndex_, name);
}

const Gauge *
MetricsRegistry::findGauge(const std::string &name) const
{
    return find(gauges_, gaugeIndex_, name);
}

const HdrHistogram *
MetricsRegistry::findHistogram(const std::string &name) const
{
    return find(histograms_, histogramIndex_, name);
}

void
MetricsRegistry::merge(const MetricsRegistry &other)
{
    for (const auto &name : other.counterOrder_)
        counter(name).merge(*other.findCounter(name));
    for (const auto &name : other.gaugeOrder_)
        gauge(name).merge(*other.findGauge(name));
    for (const auto &name : other.histogramOrder_)
        histogram(name).merge(*other.findHistogram(name));
}

std::string
MetricsRegistry::toJson() const
{
    std::string out = "{\n  \"counters\": {";
    bool first = true;
    for (const auto &name : counterOrder_) {
        appendF(out, "%s\n    \"", first ? "" : ",");
        appendEscaped(out, name);
        appendF(out, "\": %" PRIu64, findCounter(name)->value());
        first = false;
    }
    out += first ? "},\n" : "\n  },\n";
    out += "  \"gauges\": {";
    first = true;
    for (const auto &name : gaugeOrder_) {
        const Gauge *g = findGauge(name);
        appendF(out, "%s\n    \"", first ? "" : ",");
        appendEscaped(out, name);
        appendF(out, "\": {\"value\": %lld, \"max\": %lld}",
                static_cast<long long>(g->value()),
                static_cast<long long>(g->max()));
        first = false;
    }
    out += first ? "},\n" : "\n  },\n";
    out += "  \"histograms\": {";
    first = true;
    for (const auto &name : histogramOrder_) {
        const HdrHistogram *h = findHistogram(name);
        appendF(out, "%s\n    \"", first ? "" : ",");
        appendEscaped(out, name);
        appendF(out,
                "\": {\"count\": %" PRIu64 ", \"min\": %" PRIu64
                ", \"max\": %" PRIu64
                ", \"mean\": %.3f, \"p50\": %" PRIu64
                ", \"p90\": %" PRIu64 ", \"p99\": %" PRIu64
                ", \"p999\": %" PRIu64 "}",
                h->count(), h->min(), h->max(), h->mean(),
                h->quantile(0.50), h->quantile(0.90),
                h->quantile(0.99), h->quantile(0.999));
        first = false;
    }
    out += first ? "}\n}\n" : "\n  }\n}\n";
    return out;
}

std::string
MetricsRegistry::toCsv() const
{
    std::string out = "name,type,field,value\n";
    for (const auto &name : counterOrder_) {
        appendF(out, "%s,counter,value,%" PRIu64 "\n", name.c_str(),
                findCounter(name)->value());
    }
    for (const auto &name : gaugeOrder_) {
        const Gauge *g = findGauge(name);
        appendF(out, "%s,gauge,value,%lld\n", name.c_str(),
                static_cast<long long>(g->value()));
        appendF(out, "%s,gauge,max,%lld\n", name.c_str(),
                static_cast<long long>(g->max()));
    }
    for (const auto &name : histogramOrder_) {
        const HdrHistogram *h = findHistogram(name);
        appendF(out, "%s,histogram,count,%" PRIu64 "\n", name.c_str(),
                h->count());
        appendF(out, "%s,histogram,min,%" PRIu64 "\n", name.c_str(),
                h->min());
        appendF(out, "%s,histogram,max,%" PRIu64 "\n", name.c_str(),
                h->max());
        appendF(out, "%s,histogram,mean,%.3f\n", name.c_str(),
                h->mean());
        appendF(out, "%s,histogram,p50,%" PRIu64 "\n", name.c_str(),
                h->quantile(0.50));
        appendF(out, "%s,histogram,p99,%" PRIu64 "\n", name.c_str(),
                h->quantile(0.99));
    }
    return out;
}

namespace {

void
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot write %s", path.c_str());
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
}

} // namespace

void
MetricsRegistry::writeJson(const std::string &path) const
{
    writeFile(path, toJson());
}

void
MetricsRegistry::writeCsv(const std::string &path) const
{
    writeFile(path, toCsv());
}

std::vector<std::string>
MetricsRegistry::counterNames() const
{
    return counterOrder_;
}

std::vector<std::string>
MetricsRegistry::gaugeNames() const
{
    return gaugeOrder_;
}

std::vector<std::string>
MetricsRegistry::histogramNames() const
{
    return histogramOrder_;
}

} // namespace phastlane::obs
