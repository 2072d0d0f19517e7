#include "obs/flight_recorder.hh"

#include "common/logging.hh"
#include "obs/json.hh"
#include "obs/timeline.hh"

namespace dsv3::obs {

FlightRecorder::FlightRecorder(std::size_t capacityPerChannel)
    : capacity_(capacityPerChannel)
{
    DSV3_ASSERT(capacity_ >= 1,
                "flight recorder channel capacity must be >= 1");
}

void
FlightRecorder::record(const std::string &channel, double t, double v)
{
    Ring &ring = rings_[channel];
    if (ring.data.size() < capacity_) {
        ring.data.push_back({t, v});
        return;
    }
    ring.data[ring.head] = {t, v};
    ring.head = (ring.head + 1) % capacity_;
    ++overwritten_;
}

std::vector<std::string>
FlightRecorder::channels() const
{
    std::vector<std::string> names;
    names.reserve(rings_.size());
    for (const auto &[name, ring] : rings_)
        names.push_back(name);
    return names;
}

std::vector<FlightRecorder::Sample>
FlightRecorder::samples(const std::string &channel) const
{
    std::vector<Sample> out;
    auto it = rings_.find(channel);
    if (it == rings_.end())
        return out;
    const Ring &ring = it->second;
    out.reserve(ring.data.size());
    // head is the oldest slot once the ring has wrapped; before that
    // the data vector is already chronological from index 0.
    for (std::size_t i = 0; i < ring.data.size(); ++i)
        out.push_back(ring.data[(ring.head + i) % ring.data.size()]);
    return out;
}

void
FlightRecorder::clear()
{
    rings_.clear();
    overwritten_ = 0;
}

void
FlightRecorder::exportCounters(Timeline &timeline,
                               std::uint32_t pid) const
{
    for (const auto &[name, ring] : rings_) {
        for (const Sample &s : samples(name))
            timeline.counter(pid, name, s.t, s.v);
    }
}

std::string
FlightRecorder::timeseriesJson() const
{
    std::string out = "{";
    bool firstChan = true;
    for (const auto &[name, ring] : rings_) {
        if (!firstChan)
            out += ",";
        firstChan = false;
        out += '"';
        out += jsonEscape(name);
        out += "\":{\"t\":[";
        const std::vector<Sample> chron = samples(name);
        for (std::size_t i = 0; i < chron.size(); ++i) {
            if (i)
                out += ",";
            out += jsonNumber(chron[i].t);
        }
        out += "],\"v\":[";
        for (std::size_t i = 0; i < chron.size(); ++i) {
            if (i)
                out += ",";
            out += jsonNumber(chron[i].v);
        }
        out += "]}";
    }
    out += "}";
    return out;
}

} // namespace dsv3::obs
