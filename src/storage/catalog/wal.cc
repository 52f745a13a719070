#include "storage/catalog/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "obs/metrics.h"
#include "storage/atomic_file.h"
#include "storage/segment/varbyte.h"

namespace moa {
namespace {

constexpr char kWalMagic[8] = {'M', 'O', 'A', 'W', 'A', 'L', '0', '1'};
constexpr size_t kRecordHeaderBytes = 4 + 4 + 1;  // size + crc + type
// A record holds one document; anything near this is corruption, not a
// real payload (the bound only rejects garbage sizes before allocating).
constexpr uint32_t kMaxPayloadBytes = 1u << 28;

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v >> 16));
  out.push_back(static_cast<uint8_t>(v >> 24));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

struct WalMetrics {
  obs::Counter* appended_records;
  obs::Counter* appended_bytes;
  obs::Counter* fsyncs;
  obs::Counter* replay_records;
  obs::Counter* replay_truncations;
  static const WalMetrics& Get() {
    static const WalMetrics m = [] {
      auto& r = obs::MetricsRegistry::Global();
      return WalMetrics{r.GetCounter("moa_wal_appended_records_total"),
                        r.GetCounter("moa_wal_appended_bytes_total"),
                        r.GetCounter("moa_wal_fsync_total"),
                        r.GetCounter("moa_wal_replay_records_total"),
                        r.GetCounter("moa_wal_replay_truncations_total")};
    }();
    return m;
  }
};

std::vector<uint8_t> EncodeAddPayload(const DocTerms& terms) {
  // Canonical ascending term order makes gap coding work regardless of
  // the caller's input order (the memtable accepts any order too).
  DocTerms sorted = terms;
  std::sort(sorted.begin(), sorted.end());
  std::vector<uint8_t> payload;
  VarbyteAppend(payload, static_cast<uint32_t>(sorted.size()));
  TermId previous = 0;
  for (const auto& [term, tf] : sorted) {
    VarbyteAppend(payload, term - previous);
    VarbyteAppend(payload, tf);
    previous = term;
  }
  return payload;
}

/// Decodes an add/delete payload into `record`; false on malformed bytes
/// (possible only when corruption collides with the CRC).
bool DecodePayload(uint8_t type, const uint8_t* p, const uint8_t* end,
                   WalRecord* record) {
  if (type == WalRecord::kAdd) {
    record->type = WalRecord::kAdd;
    uint32_t num_terms = 0;
    size_t n = VarbyteDecode(p, end, &num_terms);
    if (n == 0) return false;
    p += n;
    record->terms.clear();
    record->terms.reserve(num_terms);
    TermId previous = 0;
    for (uint32_t i = 0; i < num_terms; ++i) {
      uint32_t gap = 0, tf = 0;
      if ((n = VarbyteDecode(p, end, &gap)) == 0) return false;
      p += n;
      if ((n = VarbyteDecode(p, end, &tf)) == 0) return false;
      p += n;
      previous += gap;
      record->terms.emplace_back(previous, tf);
    }
    return p == end;
  }
  if (type == WalRecord::kDelete) {
    record->type = WalRecord::kDelete;
    uint32_t doc = 0;
    const size_t n = VarbyteDecode(p, end, &doc);
    if (n == 0) return false;
    record->doc = doc;
    return p + n == end;
  }
  return false;  // unknown type
}

}  // namespace

uint32_t WalCrc32(const uint8_t* data, size_t size) {
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string WalFileName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal_%06llu.log",
                static_cast<unsigned long long>(seq));
  return buf;
}

Result<std::unique_ptr<WalWriter>> WalWriter::Create(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("wal: cannot create " + path);
  }
  std::unique_ptr<WalWriter> writer(new WalWriter(f, path));
  if (std::fwrite(kWalMagic, 1, sizeof(kWalMagic), f) != sizeof(kWalMagic)) {
    return Status::Internal("wal: short header write: " + path);
  }
  writer->appended_bytes_ = sizeof(kWalMagic);
  // Header + the file's very existence must be durable before the
  // manifest can reference this sequence number.
  MOA_RETURN_NOT_OK(writer->Sync());
  MOA_RETURN_NOT_OK(SyncParentDir(path));
  return writer;
}

Result<std::unique_ptr<WalWriter>> WalWriter::OpenForAppend(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return Status::Internal("wal: cannot open for append " + path);
  }
  std::unique_ptr<WalWriter> writer(new WalWriter(f, path));
  if (std::fseek(f, 0, SEEK_END) == 0) {
    const auto end = ::ftello(f);
    if (end > 0) writer->appended_bytes_ = static_cast<uint64_t>(end);
  }
  return writer;
}

WalWriter::~WalWriter() {
  if (f_ != nullptr) std::fclose(f_);
}

Status WalWriter::AppendRecord(uint8_t type,
                               const std::vector<uint8_t>& payload) {
  if (payload.size() > kMaxPayloadBytes) {
    return Status::InvalidArgument("wal: oversized record");
  }
  std::vector<uint8_t> framed;
  framed.reserve(kRecordHeaderBytes + payload.size());
  PutU32(framed, static_cast<uint32_t>(payload.size()));
  std::vector<uint8_t> checked;
  checked.reserve(1 + payload.size());
  checked.push_back(type);
  checked.insert(checked.end(), payload.begin(), payload.end());
  PutU32(framed, WalCrc32(checked.data(), checked.size()));
  framed.insert(framed.end(), checked.begin(), checked.end());
  MOA_RETURN_NOT_OK(WriteAllBytes(f_, framed.data(), framed.size(), "wal"));
  ++pending_records_;
  appended_bytes_ += framed.size();
  const WalMetrics& m = WalMetrics::Get();
  m.appended_records->Add();
  m.appended_bytes->Add(static_cast<double>(framed.size()));
  return Status::OK();
}

Status WalWriter::AppendAdd(const DocTerms& terms) {
  return AppendRecord(WalRecord::kAdd, EncodeAddPayload(terms));
}

Status WalWriter::AppendDelete(DocId global_doc) {
  std::vector<uint8_t> payload;
  VarbyteAppend(payload, global_doc);
  return AppendRecord(WalRecord::kDelete, payload);
}

Status WalWriter::Sync() {
  if (std::fflush(f_) != 0) {
    return Status::Internal("wal: flush failed: " + path_);
  }
  if (::fsync(::fileno(f_)) != 0) {
    return Status::Internal("wal: fsync failed: " + path_);
  }
  pending_records_ = 0;
  WalMetrics::Get().fsyncs->Add();
  return Status::OK();
}

Status WalWriter::SyncIfPending(size_t fsync_every) {
  if (fsync_every == 0) fsync_every = 1;
  if (pending_records_ >= fsync_every) return Sync();
  return Status::OK();
}

Status WalWriter::TruncateTo(uint64_t offset) {
  if (std::fflush(f_) != 0) {
    return Status::Internal("wal: flush before truncate failed: " + path_);
  }
  const int fd = ::fileno(f_);
  if (::ftruncate(fd, static_cast<off_t>(offset)) != 0) {
    return Status::Internal("wal: truncate failed: " + path_);
  }
  // A non-O_APPEND stream would otherwise leave a hole at the old
  // position on the next write (append-mode streams ignore the seek).
  std::fseek(f_, static_cast<long>(offset), SEEK_SET);
  if (::fsync(fd) != 0) {
    return Status::Internal("wal: fsync after truncate failed: " + path_);
  }
  appended_bytes_ = offset;
  pending_records_ = 0;
  return Status::OK();
}

Result<WalReplay> ReplayWal(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("wal: missing " + path);
  }
  std::vector<uint8_t> bytes;
  {
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      bytes.insert(bytes.end(), buf, buf + n);
    }
    const bool read_error = std::ferror(f) != 0;
    std::fclose(f);
    if (read_error) return Status::Internal("wal: read failed: " + path);
  }
  if (bytes.size() < sizeof(kWalMagic) ||
      std::memcmp(bytes.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    // The manifest ordering fsyncs the header before anything references
    // this file, so a bad header is corruption, not a torn append.
    return Status::Internal("wal: bad header: " + path);
  }

  WalReplay replay;
  size_t offset = sizeof(kWalMagic);
  while (offset < bytes.size()) {
    if (bytes.size() - offset < kRecordHeaderBytes) break;  // torn header
    const uint32_t payload_size = GetU32(&bytes[offset]);
    const uint32_t stored_crc = GetU32(&bytes[offset + 4]);
    if (payload_size > kMaxPayloadBytes) break;  // garbage size
    const size_t record_bytes = kRecordHeaderBytes + payload_size;
    if (bytes.size() - offset < record_bytes) break;  // torn payload
    const uint8_t* checked = &bytes[offset + 8];      // type + payload
    if (WalCrc32(checked, 1 + payload_size) != stored_crc) break;
    WalRecord record;
    if (!DecodePayload(checked[0], checked + 1, checked + 1 + payload_size,
                       &record)) {
      break;  // malformed payload that slipped past the CRC
    }
    replay.records.push_back(std::move(record));
    offset += record_bytes;
  }
  replay.valid_bytes = offset;
  replay.truncated = offset < bytes.size();

  if (replay.truncated) {
    // Cut the torn tail off in place so a later append starts at a
    // record boundary.
    const int fd = ::open(path.c_str(), O_WRONLY);
    if (fd < 0) return Status::Internal("wal: cannot open to truncate " + path);
    const bool ok = ::ftruncate(fd, static_cast<off_t>(offset)) == 0 &&
                    ::fsync(fd) == 0;
    ::close(fd);
    if (!ok) return Status::Internal("wal: truncate failed: " + path);
    MOA_LOG(Warning) << "wal: truncated torn tail of " << path << " at byte "
                     << offset << " (" << bytes.size() - offset
                     << " bytes dropped)";
  }
  const WalMetrics& m = WalMetrics::Get();
  m.replay_records->Add(static_cast<double>(replay.records.size()));
  if (replay.truncated) m.replay_truncations->Add();
  return replay;
}

}  // namespace moa
