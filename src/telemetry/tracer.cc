#include "telemetry/tracer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/json_util.h"

namespace fuseme {

std::int64_t Tracer::NowMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int Tracer::CurrentThreadId() {
  const std::thread::id self = std::this_thread::get_id();
  MutexLock lock(mu_);
  auto it = thread_ids_.find(self);
  if (it == thread_ids_.end()) {
    it = thread_ids_.emplace(self, static_cast<int>(thread_ids_.size()))
             .first;
  }
  return it->second;
}

void Tracer::SetThreadName(int tid, std::string name) {
  MutexLock lock(mu_);
  thread_names_[tid] = std::move(name);
}

void Tracer::SetProcessName(std::string name) {
  MutexLock lock(mu_);
  process_name_ = std::move(name);
}

void Tracer::NameCurrentThread(std::string name) {
  SetThreadName(CurrentThreadId(), std::move(name));
}

std::map<int, std::string> Tracer::thread_names() const {
  MutexLock lock(mu_);
  return thread_names_;
}

std::string Tracer::process_name() const {
  MutexLock lock(mu_);
  return process_name_;
}

void Tracer::Record(TraceSpan span) {
  MutexLock lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<TraceSpan> Tracer::spans() const {
  std::vector<TraceSpan> out;
  {
    MutexLock lock(mu_);
    out = spans_;
  }
  std::sort(out.begin(), out.end(),
            [](const TraceSpan& a, const TraceSpan& b) {
              // Spans beginning in the same microsecond: the enclosing
              // span (the one ending later) sorts first, so nesting
              // order survives a coarse clock.
              return std::tuple(a.begin_us, -a.end_us, a.tid, a.name) <
                     std::tuple(b.begin_us, -b.end_us, b.tid, b.name);
            });
  return out;
}

std::size_t Tracer::size() const {
  MutexLock lock(mu_);
  return spans_.size();
}

void Tracer::Clear() {
  MutexLock lock(mu_);
  spans_.clear();
}

std::string Tracer::ToChromeJson() const {
  std::ostringstream out;
  out << "{\"traceEvents\": [";
  bool first = true;
  // Metadata ("M") records lead: process name, then each named thread,
  // so viewers label tracks before any span references them.
  {
    MutexLock lock(mu_);
    out << "\n  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
           "\"tid\": 0, \"args\": {\"name\": \""
        << JsonEscape(process_name_) << "\"}}";
    first = false;
    for (const auto& [tid, name] : thread_names_) {
      out << ",\n  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
             "\"tid\": "
          << tid << ", \"args\": {\"name\": \"" << JsonEscape(name) << "\"}}";
    }
  }
  const std::vector<TraceSpan> sorted = spans();
  for (const TraceSpan& s : sorted) {
    out << (first ? "" : ",") << "\n  {\"name\": \"" << JsonEscape(s.name)
        << "\", \"cat\": \"" << JsonEscape(s.category)
        << "\", \"ph\": \"X\", \"ts\": " << s.begin_us
        << ", \"dur\": " << s.duration_us() << ", \"pid\": 0, \"tid\": "
        << s.tid << ", \"args\": {";
    first = false;
    for (std::size_t a = 0; a < s.args.size(); ++a) {
      out << (a == 0 ? "" : ", ") << "\"" << JsonEscape(s.args[a].first)
          << "\": \"" << JsonEscape(s.args[a].second) << "\"";
    }
    out << "}}";
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out.str();
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  out << ToChromeJson();
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name,
                       std::string category)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.name = std::move(name);
  span_.category = std::move(category);
  span_.tid = tracer_->CurrentThreadId();
  span_.begin_us = tracer_->NowMicros();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_us = tracer_->NowMicros();
  tracer_->Record(std::move(span_));
}

void ScopedSpan::AddArg(std::string key, std::string value) {
  if (tracer_ == nullptr) return;
  span_.args.emplace_back(std::move(key), std::move(value));
}

namespace {

/// One raw trace event: the span fields plus the phase, so the caller
/// can route "X" to spans and "M" to metadata.
Result<TraceSpan> ReadEvent(JsonReader* r, std::string* phase) {
  TraceSpan span;
  *phase = "X";
  double ts = 0, dur = 0, tid = 0;
  FUSEME_RETURN_IF_ERROR(r->Expect('{'));
  if (!r->TryConsume('}')) {
    do {
      FUSEME_ASSIGN_OR_RETURN(std::string key, r->ReadString());
      FUSEME_RETURN_IF_ERROR(r->Expect(':'));
      if (key == "name") {
        FUSEME_ASSIGN_OR_RETURN(span.name, r->ReadString());
      } else if (key == "cat") {
        FUSEME_ASSIGN_OR_RETURN(span.category, r->ReadString());
      } else if (key == "ph") {
        FUSEME_ASSIGN_OR_RETURN(*phase, r->ReadString());
      } else if (key == "ts") {
        FUSEME_ASSIGN_OR_RETURN(ts, r->ReadNumber());
      } else if (key == "dur") {
        FUSEME_ASSIGN_OR_RETURN(dur, r->ReadNumber());
      } else if (key == "tid") {
        FUSEME_ASSIGN_OR_RETURN(tid, r->ReadNumber());
      } else if (key == "args") {
        FUSEME_RETURN_IF_ERROR(r->Expect('{'));
        if (!r->TryConsume('}')) {
          do {
            FUSEME_ASSIGN_OR_RETURN(std::string arg_key, r->ReadString());
            FUSEME_RETURN_IF_ERROR(r->Expect(':'));
            FUSEME_ASSIGN_OR_RETURN(std::string arg_val, r->ReadString());
            span.args.emplace_back(std::move(arg_key), std::move(arg_val));
          } while (r->TryConsume(','));
          FUSEME_RETURN_IF_ERROR(r->Expect('}'));
        }
      } else {
        FUSEME_RETURN_IF_ERROR(r->SkipValue());
      }
    } while (r->TryConsume(','));
    FUSEME_RETURN_IF_ERROR(r->Expect('}'));
  }
  // Bound the doubles before the integer casts below, which are undefined
  // out of range.  2^53 us is centuries; no tracer writes more.
  constexpr double kMaxMicros = 9007199254740992.0;
  if (!(std::fabs(ts) <= kMaxMicros && std::fabs(dur) <= kMaxMicros)) {
    return r->Error("timestamp out of range");
  }
  if (!(tid >= std::numeric_limits<int>::min() &&
        tid <= std::numeric_limits<int>::max())) {
    return r->Error("tid out of range");
  }
  span.begin_us = static_cast<std::int64_t>(ts);
  span.end_us = static_cast<std::int64_t>(ts + dur);
  span.tid = static_cast<int>(tid);
  return span;
}

/// The "name" arg of a metadata record, or "" when absent.
std::string MetadataName(const TraceSpan& event) {
  for (const auto& [key, value] : event.args) {
    if (key == "name") return value;
  }
  return {};
}

}  // namespace

Result<ParsedChromeTrace> ParseChromeTraceFull(const std::string& json) {
  JsonReader r(json, "trace JSON");
  ParsedChromeTrace out;
  FUSEME_RETURN_IF_ERROR(r.Expect('{'));
  bool saw_events = false;
  if (!r.TryConsume('}')) {
    do {
      FUSEME_ASSIGN_OR_RETURN(std::string key, r.ReadString());
      FUSEME_RETURN_IF_ERROR(r.Expect(':'));
      if (key == "traceEvents") {
        saw_events = true;
        FUSEME_RETURN_IF_ERROR(r.Expect('['));
        if (!r.TryConsume(']')) {
          do {
            std::string phase;
            FUSEME_ASSIGN_OR_RETURN(TraceSpan event, ReadEvent(&r, &phase));
            if (phase == "X") {
              out.spans.push_back(std::move(event));
            } else if (phase == "M") {
              if (event.name == "thread_name") {
                out.thread_names[event.tid] = MetadataName(event);
              } else if (event.name == "process_name") {
                out.process_name = MetadataName(event);
              }
            }
          } while (r.TryConsume(','));
          FUSEME_RETURN_IF_ERROR(r.Expect(']'));
        }
      } else {
        FUSEME_RETURN_IF_ERROR(r.SkipValue());
      }
    } while (r.TryConsume(','));
    FUSEME_RETURN_IF_ERROR(r.Expect('}'));
  }
  if (!saw_events) return r.Error("missing traceEvents");
  if (!r.AtEnd()) return r.Error("trailing content");
  return out;
}

Result<std::vector<TraceSpan>> ParseChromeTrace(const std::string& json) {
  FUSEME_ASSIGN_OR_RETURN(ParsedChromeTrace parsed, ParseChromeTraceFull(json));
  return std::move(parsed.spans);
}

}  // namespace fuseme
