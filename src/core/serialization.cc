#include "core/serialization.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/group.h"
#include "core/gti.h"
#include "distance/envelope.h"

namespace onex {
namespace {

constexpr char kMagic[4] = {'O', 'N', 'E', 'X'};

// ------------------------------------------------------------- Writing.

class Writer {
 public:
  explicit Writer(std::ostream* out) : out_(out) {}

  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    Raw(s.data(), s.size());
  }
  void Doubles(const std::vector<double>& v) {
    U64(v.size());
    Raw(v.data(), v.size() * sizeof(double));
  }
  bool ok() const { return out_->good(); }

 private:
  void Raw(const void* data, size_t bytes) {
    out_->write(static_cast<const char*>(data),
                static_cast<std::streamsize>(bytes));
  }
  std::ostream* out_;
};

// ------------------------------------------------------------- Reading.

// Every count is validated against the bytes actually left in the file
// BEFORE the corresponding resize/reserve: a corrupt length prefix must
// come back as Corruption, never as a multi-gigabyte allocation (or a
// std::bad_alloc crash) from attacker- or bitrot-controlled data.
class Reader {
 public:
  explicit Reader(std::istream* in) : in_(in) {
    const std::streampos at = in_->tellg();
    in_->seekg(0, std::ios::end);
    const std::streampos end = in_->tellg();
    in_->seekg(at);
    remaining_ = end >= at ? static_cast<uint64_t>(end - at) : 0;
  }

  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool F64(double* v) { return Raw(v, sizeof(*v)); }
  bool Str(std::string* s, uint64_t max = 1 << 20) {
    uint64_t n = 0;
    if (!U64(&n) || n > max || n > remaining_) return false;
    s->resize(n);
    return Raw(s->data(), n);
  }
  bool Doubles(std::vector<double>* v) {
    uint64_t n = 0;
    if (!U64(&n) || n > remaining_ / sizeof(double)) return false;
    v->resize(n);
    return Raw(v->data(), n * sizeof(double));
  }

  /// True when `count` records of at least `min_bytes_each` could still
  /// fit in the file — the pre-reserve sanity check for every
  /// variable-length section.
  bool Fits(uint64_t count, uint64_t min_bytes_each) const {
    return count <= remaining_ / min_bytes_each;
  }

 private:
  bool Raw(void* data, size_t bytes) {
    if (bytes > remaining_) {
      in_->setstate(std::ios::failbit);
      return false;
    }
    in_->read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
    const bool ok = in_->good() || (bytes == 0);
    if (ok) remaining_ -= bytes;
    return ok;
  }
  std::istream* in_;
  uint64_t remaining_ = 0;
};

/// Stream-generic save body shared by the file and in-memory entry
/// points; `where` names the destination in error messages.
Status SaveBaseToStream(const OnexBase& base, std::ostream& out,
                        const std::string& where) {
  Writer w(&out);
  out.write(kMagic, sizeof(kMagic));
  w.U32(kOnexBaseFormatVersion);

  // Dataset.
  const Dataset& dataset = base.dataset();
  w.Str(dataset.name());
  w.U64(dataset.size());
  for (size_t i = 0; i < dataset.size(); ++i) {
    w.U32(static_cast<uint32_t>(dataset[i].label()));
    w.Doubles(dataset[i].values());
  }

  // Options.
  const OnexOptions& options = base.options();
  w.F64(options.st);
  w.U64(options.lengths.min_length);
  w.U64(options.lengths.max_length);
  w.U64(options.lengths.step);
  w.F64(options.window_ratio);
  w.U64(options.seed);
  w.U32(options.compute_sp_space ? 1 : 0);

  // GTI entries.
  w.U64(base.gti().entries().size());
  for (const auto& [length, entry] : base.gti().entries()) {
    w.U64(length);
    w.F64(entry.st_half);
    w.F64(entry.st_final);
    w.U64(entry.groups.size());
    for (const auto& group : entry.groups) {
      w.Doubles(group.representative);
      w.U64(group.members.size());
      for (const auto& member : group.members) {
        w.U32(member.ref.series);
        w.U32(member.ref.start);
        w.U32(member.ref.length);
        w.F64(member.ed_to_rep);
      }
    }
    // Dc and sums are recomputable but cheap to store and expensive to
    // recompute (O(g^2 L)); store them.
    w.Doubles(entry.dc);
    w.U64(entry.sum_sorted.size());
    for (const auto& [k, sum] : entry.sum_sorted) {
      w.U32(k);
      w.F64(sum);
    }
  }
  if (!w.ok()) return Status::IOError("write failed for '" + where + "'");
  return Status::OK();
}

/// Stream-generic load body shared by the file and in-memory entry
/// points; `where` names the source in error messages.
Result<OnexBase> LoadBaseFromStream(std::istream& in,
                                    const std::string& where) {
  Reader r(&in);

  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("'" + where + "' is not an ONEX base file");
  }
  uint32_t version = 0;
  if (!r.U32(&version) || version != kOnexBaseFormatVersion) {
    return Status::Corruption("unsupported format version " +
                              std::to_string(version));
  }

  // Dataset.
  std::string name;
  uint64_t num_series = 0;
  if (!r.Str(&name) || !r.U64(&num_series) ||
      !r.Fits(num_series, /*label + count=*/12)) {
    return Status::Corruption("truncated dataset header");
  }
  Dataset dataset(name);
  dataset.Reserve(num_series);
  for (uint64_t i = 0; i < num_series; ++i) {
    uint32_t label = 0;
    std::vector<double> values;
    if (!r.U32(&label) || !r.Doubles(&values)) {
      return Status::Corruption("truncated series " + std::to_string(i));
    }
    dataset.Add(TimeSeries(std::move(values), static_cast<int>(label)));
  }

  // Options.
  OnexOptions options;
  uint64_t min_len = 0, max_len = 0, step = 0, seed = 0;
  uint32_t sp = 0;
  if (!r.F64(&options.st) || !r.U64(&min_len) || !r.U64(&max_len) ||
      !r.U64(&step) || !r.F64(&options.window_ratio) || !r.U64(&seed) ||
      !r.U32(&sp)) {
    return Status::Corruption("truncated options block");
  }
  options.lengths = {static_cast<size_t>(min_len),
                     static_cast<size_t>(max_len),
                     static_cast<size_t>(step)};
  options.seed = seed;
  options.compute_sp_space = sp != 0;

  // GTI.
  uint64_t num_lengths = 0;
  if (!r.U64(&num_lengths) ||
      !r.Fits(num_lengths, /*entry header=*/32)) {
    return Status::Corruption("truncated GTI");
  }
  GlobalTimeIndex gti;
  for (uint64_t e = 0; e < num_lengths; ++e) {
    GtiEntry entry;
    uint64_t length = 0, num_groups = 0;
    if (!r.U64(&length) || !r.F64(&entry.st_half) ||
        !r.F64(&entry.st_final) || !r.U64(&num_groups) ||
        !r.Fits(num_groups, /*rep count + member count=*/16)) {
      return Status::Corruption("truncated GTI entry header");
    }
    entry.length = static_cast<size_t>(length);
    // EnvelopeWindow caps the ratio, so a corrupt value (huge, NaN)
    // cannot reach the size_t cast.
    const size_t window = EnvelopeWindow(entry.length, options.window_ratio);
    entry.groups.reserve(num_groups);
    for (uint64_t g = 0; g < num_groups; ++g) {
      LsiEntry group;
      uint64_t num_members = 0;
      if (!r.Doubles(&group.representative) || !r.U64(&num_members) ||
          !r.Fits(num_members, /*member record=*/20)) {
        return Status::Corruption("truncated group");
      }
      if (group.representative.size() != entry.length) {
        return Status::Corruption("representative length mismatch");
      }
      group.members.resize(num_members);
      for (auto& member : group.members) {
        if (!r.U32(&member.ref.series) || !r.U32(&member.ref.start) ||
            !r.U32(&member.ref.length) || !r.F64(&member.ed_to_rep)) {
          return Status::Corruption("truncated member record");
        }
        // Widen before adding: start + length are u32 and a corrupt
        // pair can wrap mod 2^32 past the bounds check.
        if (member.ref.series >= dataset.size() ||
            member.ref.length != entry.length ||
            static_cast<uint64_t>(member.ref.start) + member.ref.length >
                dataset[member.ref.series].length()) {
          return Status::Corruption("member reference out of bounds");
        }
      }
      // Envelopes are derived state: rebuild.
      group.envelope = ComputeEnvelope(
          std::span<const double>(group.representative.data(),
                                  group.representative.size()),
          window);
      entry.groups.push_back(std::move(group));
    }
    uint64_t num_sums = 0;
    if (!r.Doubles(&entry.dc) || !r.U64(&num_sums)) {
      return Status::Corruption("truncated Dc block");
    }
    if (entry.dc.size() != entry.groups.size() * entry.groups.size() ||
        num_sums != entry.groups.size()) {
      return Status::Corruption("Dc/sum cardinality mismatch");
    }
    entry.sum_sorted.resize(num_sums);
    for (auto& [k, sum] : entry.sum_sorted) {
      if (!r.U32(&k) || !r.F64(&sum)) {
        return Status::Corruption("truncated sum record");
      }
      if (k >= entry.groups.size()) {
        return Status::Corruption("sum record references bad group");
      }
    }
    gti.Insert(std::move(entry));
  }
  return OnexBase::FromParts(std::move(dataset), options, std::move(gti));
}

}  // namespace

Status SaveBase(const OnexBase& base, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot create '" + path + "'");
  Status saved = SaveBaseToStream(base, out, path);
  if (!saved.ok()) return saved;
  out.close();
  if (!out) return Status::IOError("close failed for '" + path + "'");
  return Status::OK();
}

Result<OnexBase> LoadBase(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  return LoadBaseFromStream(in, path);
}

Result<std::string> SaveBaseToString(const OnexBase& base) {
  std::ostringstream out(std::ios::binary);
  Status saved = SaveBaseToStream(base, out, "<memory>");
  if (!saved.ok()) return saved;
  return std::move(out).str();
}

Result<OnexBase> LoadBaseFromBuffer(const std::string& buffer) {
  std::istringstream in(buffer, std::ios::binary);
  return LoadBaseFromStream(in, "<memory>");
}

}  // namespace onex
