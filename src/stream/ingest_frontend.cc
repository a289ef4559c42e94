#include "stream/ingest_frontend.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace frechet_motif {

Status IngestFrontend::Offer(const Point& p, const double* timestamp,
                             const Sink& sink) {
  // A NaN stamp breaks the buffer's strict weak ordering (UB in the
  // multimap), and a non-finite coordinate would otherwise advance the
  // watermark (or sit in the buffer) before the window refuses it on
  // release, so both are rejected at the door.
  FM_RETURN_IF_ERROR(ValidateArrival(p, timestamp));
  if (capacity_ <= 0 || timestamp == nullptr) {
    if (!buffer_.empty()) {
      return Status::InvalidArgument(
          "cannot mix bare arrivals with a non-empty reorder buffer");
    }
    if (timestamp != nullptr) {
      if (released_any_ && *timestamp < watermark_) {
        ++stats_.late_dropped;
        return Status::Ok();
      }
      watermark_ = *timestamp;
      released_any_ = true;
    }
    ++stats_.released;
    return sink(p, timestamp);
  }

  if (released_any_ && *timestamp < watermark_) {
    // Below the watermark: even a full drain of the buffer could not
    // place this point in order.
    ++stats_.late_dropped;
    return Status::Ok();
  }
  if (!buffer_.empty() && *timestamp < buffer_.rbegin()->first) {
    ++stats_.reordered;
  }
  buffer_.emplace(*timestamp, p);
  stats_.buffered_peak = std::max(stats_.buffered_peak,
                                  static_cast<std::int64_t>(buffer_.size()));
  while (static_cast<Index>(buffer_.size()) > capacity_) {
    const auto head = buffer_.begin();
    const double ts = head->first;
    const Point point = head->second;
    buffer_.erase(head);
    watermark_ = ts;
    released_any_ = true;
    ++stats_.released;
    FM_RETURN_IF_ERROR(sink(point, &ts));
  }
  return Status::Ok();
}

void IngestFrontend::SaveTo(BinaryWriter* writer) const {
  writer->PutDouble(watermark_);
  writer->PutBool(released_any_);
  writer->PutI64(stats_.released);
  writer->PutI64(stats_.reordered);
  writer->PutI64(stats_.late_dropped);
  writer->PutI64(stats_.buffered_peak);
  writer->PutU64(buffer_.size());
  for (const auto& [ts, p] : buffer_) {
    writer->PutDouble(ts);
    writer->PutDouble(p.x);
    writer->PutDouble(p.y);
  }
}

Status IngestFrontend::LoadFrom(BinaryReader* reader) {
  FM_RETURN_IF_ERROR(reader->GetDouble(&watermark_));
  FM_RETURN_IF_ERROR(reader->GetBool(&released_any_));
  FM_RETURN_IF_ERROR(reader->GetI64(&stats_.released));
  FM_RETURN_IF_ERROR(reader->GetI64(&stats_.reordered));
  FM_RETURN_IF_ERROR(reader->GetI64(&stats_.late_dropped));
  FM_RETURN_IF_ERROR(reader->GetI64(&stats_.buffered_peak));
  std::uint64_t buffered = 0;
  FM_RETURN_IF_ERROR(reader->GetU64(&buffered));
  buffer_.clear();
  for (std::uint64_t k = 0; k < buffered; ++k) {
    double ts = 0.0;
    Point p;
    FM_RETURN_IF_ERROR(reader->GetDouble(&ts));
    FM_RETURN_IF_ERROR(reader->GetDouble(&p.x));
    FM_RETURN_IF_ERROR(reader->GetDouble(&p.y));
    if (!std::isfinite(ts)) {
      return Status::DataLoss("frontend snapshot holds a non-finite stamp");
    }
    // emplace inserts at the upper bound of equal keys, so the saved
    // order among duplicates — which was arrival order — is preserved.
    buffer_.emplace(ts, p);
  }
  return Status::Ok();
}

Status IngestFrontend::Flush(const Sink& sink) {
  while (!buffer_.empty()) {
    const auto head = buffer_.begin();
    const double ts = head->first;
    const Point point = head->second;
    buffer_.erase(head);
    watermark_ = ts;
    released_any_ = true;
    ++stats_.released;
    FM_RETURN_IF_ERROR(sink(point, &ts));
  }
  return Status::Ok();
}

}  // namespace frechet_motif
