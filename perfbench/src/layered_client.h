#ifndef PERFBENCH_LAYERED_CLIENT_H_
#define PERFBENCH_LAYERED_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "client/file_system.h"
#include "cluster/cluster.h"

namespace perfbench {

/// The traced runs' client: performs the same operations as
/// octo::FileSystem (same RPCs, same order, same 64 KiB write packets),
/// but calls the Master and the Workers itself so that a span wraps every
/// call into a layer. A root span "client.<op>" wraps each operation;
/// its self time is the client's own work (packetizing, copying,
/// replica selection).
///
/// No pipeline recovery or replica failover: the benchmark injects no
/// faults, so any error is a failed operation.
class LayeredClient {
 public:
  LayeredClient(octo::Cluster* cluster, octo::NetworkLocation location,
                std::string name);

  octo::Status Mkdirs(const std::string& path);
  octo::Status WriteFile(const std::string& path, std::string_view data,
                         const octo::ReplicationVector& rv,
                         int64_t block_size);
  octo::Result<std::string> ReadFile(const std::string& path);
  /// Open + positioned read, as FileSystem::Open then FileReader::Pread.
  octo::Result<std::string> Pread(const std::string& path, int64_t offset,
                                  int64_t length);
  octo::Result<octo::FileStatus> GetFileStatus(const std::string& path);
  octo::Result<std::vector<octo::FileStatus>> ListDirectory(
      const std::string& path);
  octo::Status Rename(const std::string& src, const std::string& dst);
  octo::Status Delete(const std::string& path);

  /// Bytes Pread asked for, and bytes Worker::ReadBlock returned for them.
  int64_t pread_bytes_asked() const { return pread_bytes_asked_; }
  int64_t pread_bytes_returned() const { return pread_bytes_returned_; }

 private:
  /// GetFileStatus + GetBlockLocations, as FileSystem::Open.
  octo::Result<std::vector<octo::LocatedBlock>> Open(const std::string& path);
  /// Reads one block from the first replica that serves it, as
  /// FileReader::TryReadBlock.
  octo::Result<std::string> ReadBlock(const octo::LocatedBlock& located);
  octo::Status WriteBlock(const std::string& path, std::string_view data);

  octo::Cluster* cluster_;
  octo::NetworkLocation location_;
  std::string name_;
  octo::UserContext ctx_;
  int64_t pread_bytes_asked_ = 0;
  int64_t pread_bytes_returned_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERED_CLIENT_H_
