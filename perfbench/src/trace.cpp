#include "trace.hpp"

#include "bench.hpp"
#include "support/json.hpp"

namespace ssbench {

namespace {

// Per-thread stack of open span indices: the top is the parent of the next
// span this thread opens.
thread_local std::vector<std::size_t> t_open;
thread_local int t_thread = 0;

}  // namespace

Tracer::Span::Span(Tracer* tr, const char* name) : tr_(tr) {
  if (tr_ == nullptr) return;
  Rec r;
  r.name = name;
  r.parent = t_open.empty() ? -1 : static_cast<std::int64_t>(t_open.back());
  r.thread = t_thread;
  {
    std::lock_guard<std::mutex> lk(tr_->mu_);
    r.run = tr_->run_;
    id_ = tr_->spans_.size();
    tr_->spans_.push_back(r);
  }
  t_open.push_back(id_);
  // Stamp the start last so the bookkeeping above is not charged to it.
  const double t = now_s();
  std::lock_guard<std::mutex> lk(tr_->mu_);
  tr_->spans_[id_].start = t;
}

Tracer::Span::~Span() {
  if (tr_ == nullptr) return;
  const double t = now_s();
  t_open.pop_back();
  std::lock_guard<std::mutex> lk(tr_->mu_);
  tr_->spans_[id_].end = t;
}

void Tracer::set_run(int run) {
  std::lock_guard<std::mutex> lk(mu_);
  run_ = run;
}

void Tracer::set_thread(int tag) { t_thread = tag; }

void Tracer::sample(const std::string& name, double value) {
  std::lock_guard<std::mutex> lk(mu_);
  samples_[name].push_back(value);
}

std::map<std::string, std::vector<double>> Tracer::samples() const {
  std::lock_guard<std::mutex> lk(mu_);
  return samples_;
}

void Tracer::write_spans(std::ostream& os) const {
  std::lock_guard<std::mutex> lk(mu_);
  ss::support::json::Writer w(os, 0);
  w.begin_object();
  w.key("spans");
  w.begin_array();
  for (const Rec& r : spans_) {
    w.begin_object();
    w.kv("name", r.name);
    w.kv("start", r.start);
    w.kv("end", r.end);
    w.kv("parent", r.parent);
    w.kv("run", r.run);
    w.kv("thread", r.thread);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
}

}  // namespace ssbench
