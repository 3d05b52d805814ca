// In-memory span and sample recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark around its calls into the
// simulator's public functions (name, start, end, parent span, run id,
// recording thread); nothing inside the simulator is instrumented. Samples
// are per-call values of the per-layer metrics, keyed by metric name.
// Both stay in memory; spans are written out once, at exit.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace ssbench {

class Tracer {
 public:
  /// RAII span. A null tracer makes it a no-op, so call sites need no
  /// branches between the traced and untraced paths.
  class Span {
   public:
    Span(Tracer* tr, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tr_;
    std::size_t id_ = 0;
  };

  /// Run id stamped on subsequent spans (the episode index).
  void set_run(int run);
  /// Tag for spans opened by the calling thread (the rank; default 0).
  static void set_thread(int tag);

  /// Append one sample of per-layer metric `name`.
  void sample(const std::string& name, double value);
  std::map<std::string, std::vector<double>> samples() const;

  /// Spans as JSON: {"spans": [{"name", "start", "end", "parent", "run",
  /// "thread"}, ...]}; parent is the index of the enclosing span or -1.
  void write_spans(std::ostream& os) const;

 private:
  struct Rec {
    const char* name;
    double start = 0.0;
    double end = 0.0;
    std::int64_t parent = -1;
    int run = 0;
    int thread = 0;
  };

  mutable std::mutex mu_;  // guards everything below
  int run_ = 0;
  std::vector<Rec> spans_;
  std::map<std::string, std::vector<double>> samples_;
};

}  // namespace ssbench
