#include "server/client.h"

#include <utility>

namespace provlin::server {

namespace wire = lineage::wire;

Result<LineageClient> LineageClient::Connect(const std::string& host,
                                             uint16_t port,
                                             uint32_t max_frame_bytes) {
  PROVLIN_ASSIGN_OR_RETURN(Socket socket, TcpConnect(host, port));
  return LineageClient(std::move(socket), max_frame_bytes);
}

Result<uint64_t> LineageClient::Send(std::string_view engine,
                                     const lineage::LineageRequest& request,
                                     bool want_timeline) {
  wire::RequestEnvelope envelope;
  envelope.request_id = next_id_++;
  envelope.engine = std::string(engine);
  envelope.request = request;
  envelope.want_timeline = want_timeline;
  PROVLIN_RETURN_IF_ERROR(WriteFrame(
      socket_, wire::EncodeRequestEnvelope(envelope), max_frame_bytes_));
  return envelope.request_id;
}

Result<wire::ResponseEnvelope> LineageClient::Receive() {
  std::string payload;
  PROVLIN_ASSIGN_OR_RETURN(bool got, reader_.Read(socket_, &payload));
  if (!got) {
    return Status::Unavailable(
        "connection closed by server before a response frame");
  }
  return wire::DecodeResponseEnvelope(payload);
}

Result<wire::ResponseEnvelope> LineageClient::Call(
    std::string_view engine, const lineage::LineageRequest& request,
    bool want_timeline) {
  PROVLIN_RETURN_IF_ERROR(Send(engine, request, want_timeline).status());
  return Receive();
}

Result<wire::StatsResponse> LineageClient::Stats(uint8_t want) {
  wire::StatsRequest scrape;
  scrape.request_id = next_id_++;
  scrape.want = want;
  PROVLIN_RETURN_IF_ERROR(WriteFrame(socket_, wire::EncodeStatsRequest(scrape),
                                     max_frame_bytes_));
  std::string payload;
  PROVLIN_ASSIGN_OR_RETURN(bool got, reader_.Read(socket_, &payload));
  if (!got) {
    return Status::Unavailable(
        "connection closed by server before the STATS response");
  }
  PROVLIN_ASSIGN_OR_RETURN(wire::StatsResponse response,
                           wire::DecodeStatsResponse(payload));
  if (response.request_id != scrape.request_id) {
    return Status::Corruption("STATS response id mismatch");
  }
  return response;
}

}  // namespace provlin::server
