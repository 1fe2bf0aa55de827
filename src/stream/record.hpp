// Stream data model: records and batches.
//
// The engine is batch-at-a-time: sources emit small batches on a fixed
// cadence, operators transform batches, and cross-site edges accumulate
// batches into WAN-sized transfers. Records carry their creation time so
// sinks can account true end-to-end (event-to-arrival) latency across
// however many sites and transfers a record traversed.
//
// Batches are stored structure-of-arrays: four parallel columns
// (event_time / key / value / wire_size) instead of one std::vector of
// 32-byte structs. Stages that touch a single field — value maps, key
// filters, the sink's latency loop — walk one dense 8-byte column, which
// vectorizes and quarters the memory traffic. `Record` remains the
// record-at-a-time interchange type: `row(i)` gathers one, `set_row`
// scatters one in place, and `add` appends one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace sage::stream {

struct Record {
  /// Simulated time the event was produced at its source.
  SimTime event_time;
  /// Partitioning / grouping key.
  std::uint64_t key = 0;
  /// Measurement payload.
  double value = 0.0;
  /// Serialized size of this record on the wire.
  Bytes wire_size = Bytes::of(64);
};

class RecordBatch {
 public:
  RecordBatch() = default;

  void add(const Record& r) { add(r.event_time, r.key, r.value, r.wire_size); }
  /// Column-wise append (sources write fields straight into the columns).
  void add(SimTime event_time, std::uint64_t key, double value, Bytes wire) {
    bytes_ += wire;
    event_time_.push_back(event_time);
    key_.push_back(key);
    value_.push_back(value);
    wire_.push_back(wire);
  }

  void clear() {
    event_time_.clear();
    key_.clear();
    value_.clear();
    wire_.clear();
    bytes_ = Bytes::zero();
  }
  void reserve(std::size_t n) {
    event_time_.reserve(n);
    key_.reserve(n);
    value_.reserve(n);
    wire_.reserve(n);
  }
  void append(const RecordBatch& other) {
    reserve(size() + other.size());
    event_time_.insert(event_time_.end(), other.event_time_.begin(),
                       other.event_time_.end());
    key_.insert(key_.end(), other.key_.begin(), other.key_.end());
    value_.insert(value_.end(), other.value_.begin(), other.value_.end());
    wire_.insert(wire_.end(), other.wire_.begin(), other.wire_.end());
    bytes_ += other.bytes_;
  }
  /// Move-append: steals the other batch's columns when this one is empty,
  /// otherwise copies with a single reservation. Either way `other` is left
  /// cleared *with its capacity intact* (the stolen-into case hands it this
  /// batch's old buffers), so the caller can recycle it into a batch pool.
  void append(RecordBatch&& other) {
    if (event_time_.empty()) {
      event_time_.swap(other.event_time_);
      key_.swap(other.key_);
      value_.swap(other.value_);
      wire_.swap(other.wire_);
      bytes_ += other.bytes_;
    } else {
      append(static_cast<const RecordBatch&>(other));
      other.event_time_.clear();
      other.key_.clear();
      other.value_.clear();
      other.wire_.clear();
    }
    other.bytes_ = Bytes::zero();
  }

  [[nodiscard]] bool empty() const { return event_time_.empty(); }
  [[nodiscard]] std::size_t size() const { return event_time_.size(); }
  [[nodiscard]] std::size_t capacity() const { return event_time_.capacity(); }
  [[nodiscard]] Bytes wire_size() const { return bytes_; }
  /// Replace the tracked wire-byte total after an in-place transform
  /// (operators maintain the column sum while they rewrite the batch).
  void set_wire_size(Bytes total) { bytes_ = total; }

  // Columns. Mutating a column directly leaves the wire-byte total to the
  // caller (finish with set_wire_size).
  [[nodiscard]] const std::vector<SimTime>& event_times() const { return event_time_; }
  [[nodiscard]] std::vector<SimTime>& event_times() { return event_time_; }
  [[nodiscard]] const std::vector<std::uint64_t>& keys() const { return key_; }
  [[nodiscard]] std::vector<std::uint64_t>& keys() { return key_; }
  [[nodiscard]] const std::vector<double>& values() const { return value_; }
  [[nodiscard]] std::vector<double>& values() { return value_; }
  [[nodiscard]] const std::vector<Bytes>& wire_sizes() const { return wire_; }
  [[nodiscard]] std::vector<Bytes>& wire_sizes() { return wire_; }

  /// Gather row `i` into a Record.
  [[nodiscard]] Record row(std::size_t i) const {
    return Record{event_time_[i], key_[i], value_[i], wire_[i]};
  }
  /// Scatter a Record back into row `i`. Does not touch the tracked byte
  /// total — in-place transforms maintain it themselves.
  void set_row(std::size_t i, const Record& r) {
    event_time_[i] = r.event_time;
    key_[i] = r.key;
    value_[i] = r.value;
    wire_[i] = r.wire_size;
  }

  /// Drop all rows past the first `n` (filter compaction tail). The tracked
  /// byte total is the caller's to maintain.
  void truncate(std::size_t n) {
    event_time_.resize(n);
    key_.resize(n);
    value_.resize(n);
    wire_.resize(n);
  }

 private:
  std::vector<SimTime> event_time_;
  std::vector<std::uint64_t> key_;
  std::vector<double> value_;
  std::vector<Bytes> wire_;
  Bytes bytes_;
};

}  // namespace sage::stream
