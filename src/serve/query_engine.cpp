#include "serve/query_engine.hpp"

#include <thread>

namespace sdb::serve {

QueryEngine::QueryEngine(ModelRegistry& registry, Config config)
    : registry_(registry),
      config_(config),
      pool_(config.threads) {
  SDB_CHECK(config_.queue_capacity > 0, "queue capacity must be positive");
}

bool QueryEngine::try_submit(Request request, Callback on_done) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (in_flight_.fetch_add(1, std::memory_order_acq_rel) >=
      config_.queue_capacity) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    shed_.fetch_add(1, std::memory_order_relaxed);
    if (on_done) {
      Reply reply;
      reply.status = ReplyStatus::kOverloaded;
      on_done(reply);
    }
    return false;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  const Clock::time_point now = Clock::now();
  pool_.submit([this, request = std::move(request), on_done = std::move(on_done),
                now]() mutable {
    const Reply reply = execute_counted(request);
    complete(request, reply, now);
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    if (on_done) on_done(reply);
  });
  return true;
}

size_t QueryEngine::try_submit_batch(std::vector<Request> requests,
                                     Callback on_done) {
  const size_t want = requests.size();
  submitted_.fetch_add(want, std::memory_order_relaxed);
  if (want == 0) return 0;
  const size_t before = in_flight_.fetch_add(want, std::memory_order_acq_rel);
  const size_t admit =
      before >= config_.queue_capacity
          ? 0
          : std::min(want, config_.queue_capacity - before);
  if (admit < want) {
    in_flight_.fetch_sub(want - admit, std::memory_order_acq_rel);
    shed_.fetch_add(want - admit, std::memory_order_relaxed);
  }
  if (admit == 0) return 0;
  accepted_.fetch_add(admit, std::memory_order_relaxed);
  requests.resize(admit);
  const Clock::time_point now = Clock::now();
  pool_.submit([this, requests = std::move(requests),
                on_done = std::move(on_done), now]() {
    for (const Request& request : requests) {
      const Reply reply = execute_counted(request);
      complete(request, reply, now);
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      if (on_done) on_done(reply);
    }
  });
  return admit;
}

Reply QueryEngine::execute(const Request& request) {
  Reply reply;
  switch (request.type) {
    case RequestType::kClassify: {
      const std::shared_ptr<const ClusterModel> model = registry_.model();
      reply.epoch = model->epoch();
      reply.degraded_model = model->degraded();
      if (static_cast<int>(request.point.size()) != model->dim()) {
        reply.status = ReplyStatus::kInvalid;
        return reply;
      }
      const u64 hash = ClassifyCache::hash_point(request.point);
      if (cache_.lookup(hash, request.point, reply.epoch, &reply.label)) {
        reply.cache_hit = true;
        reply.status = ReplyStatus::kOk;
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        return reply;
      }
      reply.label = model->classify(request.point);
      cache_.insert(hash, request.point, reply.epoch, reply.label);
      cache_misses_.fetch_add(1, std::memory_order_relaxed);
      reply.status = ReplyStatus::kOk;
      return reply;
    }
    case RequestType::kLookup: {
      const std::shared_ptr<const ClusterModel> model = registry_.model();
      reply.epoch = model->epoch();
      reply.degraded_model = model->degraded();
      reply.id = request.id;
      if (!model->has(request.id)) {
        // Malformed ids are kInvalid; well-formed ids the snapshot simply
        // does not cover (yet — e.g. inserted since the last publish) are
        // kNotFound, matching remove's status for unknown ids.
        reply.status = request.id < 0 ? ReplyStatus::kInvalid
                                      : ReplyStatus::kNotFound;
        return reply;
      }
      reply.label = model->label_of(request.id);
      reply.status = ReplyStatus::kOk;
      return reply;
    }
    case RequestType::kInsert: {
      if (static_cast<int>(request.point.size()) != registry_.dim()) {
        reply.status = ReplyStatus::kInvalid;
        return reply;
      }
      // Graceful degradation: a stalled registry writer must not block a
      // worker thread (that would cascade into shed reads). Refuse the
      // mutation with an explicit signal; reads keep flowing from the last
      // published snapshot.
      if (!registry_.write_available()) {
        reply.status = ReplyStatus::kDegraded;
        reply.epoch = registry_.epoch();
        return reply;
      }
      reply.id = registry_.insert(request.point);
      reply.epoch = registry_.epoch();
      reply.status = ReplyStatus::kOk;
      return reply;
    }
    case RequestType::kRemove: {
      reply.id = request.id;
      if (!registry_.write_available()) {
        reply.status = ReplyStatus::kDegraded;
        reply.epoch = registry_.epoch();
        return reply;
      }
      reply.status = registry_.try_remove(request.id) ? ReplyStatus::kOk
                                                      : ReplyStatus::kNotFound;
      reply.epoch = registry_.epoch();
      return reply;
    }
  }
  reply.status = ReplyStatus::kInvalid;
  return reply;
}

Reply QueryEngine::execute_counted(const Request& request) {
  WorkCounters wc;
  Reply reply;
  {
    ScopedCounters scope(&wc);
    reply = execute(request);
  }
  const size_t stripe =
      std::hash<std::thread::id>()(std::this_thread::get_id()) % kWorkStripes;
  {
    const std::scoped_lock lock(work_stripes_[stripe].mu);
    work_stripes_[stripe].wc += wc;
  }
  return reply;
}

void QueryEngine::complete(const Request& request, const Reply& reply,
                           Clock::time_point submitted_at) {
  const u64 nanos = static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           submitted_at)
          .count());
  latency_.record_nanos(nanos);
  if (request.type == RequestType::kClassify) {
    classify_latency_.record_nanos(nanos);
  }
  by_type_[static_cast<size_t>(request.type)].fetch_add(
      1, std::memory_order_relaxed);
  completed_.fetch_add(1, std::memory_order_relaxed);
  if (reply.status == ReplyStatus::kInvalid) {
    invalid_.fetch_add(1, std::memory_order_relaxed);
  }
  if (reply.status == ReplyStatus::kDegraded) {
    degraded_.fetch_add(1, std::memory_order_relaxed);
  }
  if (reply.degraded_model) {
    degraded_model_reads_.fetch_add(1, std::memory_order_relaxed);
  }
}

MetricsSnapshot QueryEngine::metrics() const {
  MetricsSnapshot m;
  m.submitted = submitted_.load(std::memory_order_relaxed);
  m.accepted = accepted_.load(std::memory_order_relaxed);
  m.shed = shed_.load(std::memory_order_relaxed);
  m.completed = completed_.load(std::memory_order_relaxed);
  m.invalid = invalid_.load(std::memory_order_relaxed);
  m.degraded = degraded_.load(std::memory_order_relaxed);
  m.degraded_model_reads =
      degraded_model_reads_.load(std::memory_order_relaxed);
  m.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  m.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  for (size_t t = 0; t < kRequestTypes; ++t) {
    m.by_type[t] = by_type_[t].load(std::memory_order_relaxed);
  }
  m.latency = latency_.snapshot();
  m.classify_latency = classify_latency_.snapshot();
  for (const WorkStripe& stripe : work_stripes_) {
    const std::scoped_lock lock(stripe.mu);
    m.work += stripe.wc;
  }
  return m;
}

}  // namespace sdb::serve
