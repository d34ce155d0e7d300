#include "layered_client.h"

#include <algorithm>

#include "trace.h"

namespace perfbench {

using octo::Result;
using octo::Status;

namespace {

/// FileWriter's pipeline packet size.
constexpr int64_t kPacketSize = 64 * 1024;

}  // namespace

LayeredClient::LayeredClient(octo::Cluster* cluster,
                             octo::NetworkLocation location, std::string name)
    : cluster_(cluster),
      location_(std::move(location)),
      name_(std::move(name)) {}

Status LayeredClient::Mkdirs(const std::string& path) {
  Span op("client.mkdirs");
  Span call("namespacefs.mkdirs");
  return cluster_->master()->Mkdirs(path, ctx_);
}

Status LayeredClient::WriteFile(const std::string& path, std::string_view data,
                                const octo::ReplicationVector& rv,
                                int64_t block_size) {
  Span op("client.write_file");
  octo::Master* master = cluster_->master();
  {
    Span call("namespacefs.create");
    OCTO_RETURN_IF_ERROR(
        master->Create(path, rv, block_size, false, ctx_, name_));
  }
  for (size_t offset = 0; offset < data.size();
       offset += static_cast<size_t>(block_size)) {
    OCTO_RETURN_IF_ERROR(
        WriteBlock(path, data.substr(offset, static_cast<size_t>(block_size))));
  }
  Span call("cluster.master.complete_file");
  return master->CompleteFile(path, name_);
}

Status LayeredClient::WriteBlock(const std::string& path,
                                 std::string_view data) {
  octo::Master* master = cluster_->master();
  octo::LocatedBlock located;
  {
    Span call("cluster.master.add_block");
    OCTO_ASSIGN_OR_RETURN(located, master->AddBlock(path, name_, location_));
  }
  const octo::BlockId block = located.block.id;
  const uint64_t genstamp = located.block.genstamp;
  std::vector<octo::Worker*> workers;
  for (const octo::PlacedReplica& replica : located.locations) {
    octo::Worker* worker = cluster_->worker(replica.worker);
    if (worker == nullptr) return Status::NotFound("pipeline worker");
    Span call("cluster.worker.open_block");
    OCTO_RETURN_IF_ERROR(worker->OpenBlock(replica.medium, block, genstamp));
    workers.push_back(worker);
  }
  const int64_t length = static_cast<int64_t>(data.size());
  for (int64_t offset = 0; offset < length; offset += kPacketSize) {
    std::string_view packet = data.substr(
        static_cast<size_t>(offset),
        static_cast<size_t>(std::min(kPacketSize, length - offset)));
    for (size_t i = 0; i < workers.size(); ++i) {
      Span call("cluster.worker.write_packet");
      OCTO_RETURN_IF_ERROR(workers[i]->WritePacket(
          located.locations[i].medium, block, offset, packet, genstamp));
    }
  }
  std::vector<octo::MediumId> succeeded;
  for (size_t i = 0; i < workers.size(); ++i) {
    Span call("cluster.worker.finalize_block");
    OCTO_RETURN_IF_ERROR(workers[i]->FinalizeBlock(located.locations[i].medium,
                                                   block, genstamp));
    succeeded.push_back(located.locations[i].medium);
  }
  Span call("cluster.master.commit_block");
  return master->CommitBlock(path, name_, block, length, succeeded, genstamp);
}

Result<std::vector<octo::LocatedBlock>> LayeredClient::Open(
    const std::string& path) {
  octo::Master* master = cluster_->master();
  {
    Span call("namespacefs.get_file_status");
    OCTO_ASSIGN_OR_RETURN(octo::FileStatus status,
                          master->GetFileStatus(path, ctx_));
    if (status.is_dir) return Status::InvalidArgument(path + " is a directory");
  }
  Span call("cluster.master.get_block_locations");
  return master->GetBlockLocations(path, location_);
}

Result<std::string> LayeredClient::ReadBlock(
    const octo::LocatedBlock& located) {
  for (const octo::PlacedReplica& replica : located.locations) {
    octo::Worker* worker = cluster_->worker(replica.worker);
    if (worker == nullptr) continue;
    {
      Span call("cluster.worker.get_replica_info");
      auto info = worker->GetReplicaInfo(replica.medium, located.block.id);
      if (!info.ok() || info->state != octo::ReplicaState::kFinalized ||
          info->genstamp != located.block.genstamp) {
        continue;
      }
    }
    Result<std::string> data = [&] {
      Span call("cluster.worker.read_block");
      return worker->ReadBlock(replica.medium, located.block.id);
    }();
    if (data.ok() &&
        static_cast<int64_t>(data->size()) == located.block.length) {
      worker->NoteBlockRead(located.block.id, located.block.length);
      return data;
    }
  }
  return Status::IoError("no replica of block " +
                         std::to_string(located.block.id) + " served a read");
}

Result<std::string> LayeredClient::ReadFile(const std::string& path) {
  Span op("client.read_file");
  OCTO_ASSIGN_OR_RETURN(std::vector<octo::LocatedBlock> blocks, Open(path));
  std::string out;
  for (const octo::LocatedBlock& located : blocks) {
    OCTO_ASSIGN_OR_RETURN(std::string data, ReadBlock(located));
    out += data;
  }
  return out;
}

Result<std::string> LayeredClient::Pread(const std::string& path,
                                         int64_t offset, int64_t length) {
  Span op("client.pread");
  OCTO_ASSIGN_OR_RETURN(std::vector<octo::LocatedBlock> blocks, Open(path));
  std::string out;
  for (const octo::LocatedBlock& located : blocks) {
    int64_t begin = std::max(offset, located.offset);
    int64_t end =
        std::min(offset + length, located.offset + located.block.length);
    if (begin >= end) continue;
    OCTO_ASSIGN_OR_RETURN(std::string data, ReadBlock(located));
    pread_bytes_returned_ += static_cast<int64_t>(data.size());
    out.append(data, static_cast<size_t>(begin - located.offset),
               static_cast<size_t>(end - begin));
  }
  pread_bytes_asked_ += length;
  return out;
}

Result<octo::FileStatus> LayeredClient::GetFileStatus(const std::string& path) {
  Span op("client.get_file_status");
  Span call("namespacefs.get_file_status");
  return cluster_->master()->GetFileStatus(path, ctx_);
}

Result<std::vector<octo::FileStatus>> LayeredClient::ListDirectory(
    const std::string& path) {
  Span op("client.list_directory");
  Span call("namespacefs.list_directory");
  return cluster_->master()->ListDirectory(path, ctx_);
}

Status LayeredClient::Rename(const std::string& src, const std::string& dst) {
  Span op("client.rename");
  Span call("namespacefs.rename");
  return cluster_->master()->Rename(src, dst, ctx_);
}

Status LayeredClient::Delete(const std::string& path) {
  Span op("client.delete");
  Span call("namespacefs.delete");
  return cluster_->master()->Delete(path, false, ctx_).status();
}

}  // namespace perfbench
