#include "obs/export.h"

#include <cctype>
#include <string>

#include "trace/json.h"

namespace gpl {
namespace obs {

namespace {

bool ValidNameChar(char c, bool first, bool allow_colon) {
  if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') return true;
  if (allow_colon && c == ':') return true;
  return !first && std::isdigit(static_cast<unsigned char>(c));
}

std::string Sanitize(const std::string& name, bool allow_colon) {
  std::string out;
  out.reserve(name.size() + 1);
  if (name.empty()) return "_";
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    if (ValidNameChar(c, /*first=*/i == 0, allow_colon)) {
      out += c;
    } else if (i == 0 && std::isdigit(static_cast<unsigned char>(c))) {
      out += '_';
      out += c;
    } else {
      out += '_';
    }
  }
  return out;
}

/// Escapes a Prometheus label value or help string: backslash, newline and
/// (for label values) double quote.
std::string PromEscape(const std::string& s, bool label_value) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '"':
        out += label_value ? "\\\"" : "\"";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string PromLabels(const Labels& labels, const std::string& extra_key = "",
                       const std::string& extra_value = "") {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += SanitizeLabelName(key) + "=\"" + PromEscape(value, true) + "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out += ",";
    out += extra_key + "=\"" + PromEscape(extra_value, true) + "\"";
  }
  out += "}";
  return out;
}

}  // namespace

std::string SanitizeMetricName(const std::string& name) {
  return Sanitize(name, /*allow_colon=*/true);
}

std::string SanitizeLabelName(const std::string& name) {
  return Sanitize(name, /*allow_colon=*/false);
}

std::string PrometheusText(const std::vector<FamilySnapshot>& families) {
  std::string out;
  for (const FamilySnapshot& family : families) {
    const std::string name = SanitizeMetricName(family.name);
    out += "# HELP " + name + " " + PromEscape(family.help, false) + "\n";
    out += "# TYPE " + name + " " + MetricTypeName(family.type) + "\n";
    for (const SeriesSnapshot& series : family.series) {
      if (series.histogram.has_value()) {
        const HistogramSnapshot& h = *series.histogram;
        uint64_t cumulative = 0;
        for (size_t i = 0; i < h.bounds.size(); ++i) {
          cumulative += h.counts[i];
          out += name + "_bucket" +
                 PromLabels(series.labels, "le",
                            trace::JsonNumber(h.bounds[i])) +
                 " " + std::to_string(cumulative) + "\n";
        }
        cumulative += h.counts.empty() ? 0 : h.counts.back();
        out += name + "_bucket" + PromLabels(series.labels, "le", "+Inf") +
               " " + std::to_string(cumulative) + "\n";
        out += name + "_sum" + PromLabels(series.labels) + " " +
               trace::JsonNumber(h.sum) + "\n";
        out += name + "_count" + PromLabels(series.labels) + " " +
               std::to_string(h.count) + "\n";
      } else if (family.type == MetricType::kCounter) {
        out += name + PromLabels(series.labels) + " " +
               std::to_string(series.counter_value) + "\n";
      } else {
        out += name + PromLabels(series.labels) + " " +
               trace::JsonNumber(series.value) + "\n";
      }
    }
  }
  return out;
}

std::string PrometheusText(const MetricsRegistry& registry) {
  return PrometheusText(registry.Collect());
}

std::string JsonSnapshot(const std::vector<FamilySnapshot>& families) {
  std::string out;
  trace::JsonObjectWriter root(&out);
  root.Key("metrics");
  out += "[";
  bool first_family = true;
  for (const FamilySnapshot& family : families) {
    if (!first_family) out += ",";
    first_family = false;
    trace::JsonObjectWriter object(&out);
    object.Field("name", family.name)
        .Field("type", MetricTypeName(family.type))
        .Field("help", family.help);
    object.Key("series");
    out += "[";
    bool first_series = true;
    for (const SeriesSnapshot& series : family.series) {
      if (!first_series) out += ",";
      first_series = false;
      trace::JsonObjectWriter entry(&out);
      entry.Key("labels");
      trace::JsonObjectWriter labels(&out);
      for (const auto& [key, value] : series.labels) labels.Field(key, value);
      labels.Close();
      if (series.histogram.has_value()) {
        const HistogramSnapshot& h = *series.histogram;
        entry.Field("count", h.count)
            .Field("sum", h.sum)
            .Field("min", h.min_seen)
            .Field("max", h.max_seen)
            .Field("p50", h.Quantile(0.50))
            .Field("p95", h.Quantile(0.95))
            .Field("p99", h.Quantile(0.99));
        entry.Key("bounds");
        out += trace::JsonNumberArray(h.bounds);
        entry.Key("counts");
        out += "[";
        for (size_t i = 0; i < h.counts.size(); ++i) {
          if (i > 0) out += ",";
          out += std::to_string(h.counts[i]);
        }
        out += "]";
      } else if (family.type == MetricType::kCounter) {
        entry.Field("value", series.counter_value);
      } else {
        entry.Field("value", series.value);
      }
      entry.Close();
    }
    out += "]";
    object.Close();
  }
  out += "]";
  root.Close();
  return out;
}

std::string JsonSnapshot(const MetricsRegistry& registry) {
  return JsonSnapshot(registry.Collect());
}

}  // namespace obs
}  // namespace gpl
