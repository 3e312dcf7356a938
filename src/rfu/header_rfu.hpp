// Header RFU — MPDU assembly and header parsing for the three protocols.
// A Memory-Access RFU: its configuration blob carries the per-protocol frame
// format descriptor (header length, HCS placement), modelling the "general
// parameterized architecture containing configurable hardware blocks" lineage
// the thesis builds on (§2.4, Iliopoulos et al.).
//
// Assembly: copies the CPU-prepared header template (the CPU only ever
// touches header data, §3.5) from the Ctrl page, inserts an HCS placeholder
// (patched later by HdrCheckRfu), and appends the payload page.
// Parsing: decodes the received frame's header and deposits the fields into
// the Ctrl page status words for the Event Handler and the CPU.
#pragma once

#include "rfu/streaming.hpp"

namespace drmp::rfu {

class HeaderRfu final : public StreamingRfu {
 public:
  explicit HeaderRfu(Env env)
      : StreamingRfu(kHeaderRfu, "header", ReconfigMech::MemoryAccess, env) {}

  /// Format descriptor blob for a protocol state.
  static std::vector<Word> make_config_blob(u8 state);

 protected:
  // Ops:
  //   Assemble{Wifi,Uwb,Wimax} [hdr_tmpl_page, body_page, dst_page]
  //   Parse{Wifi,Uwb,Wimax}    [src_page, status_base_addr]
  //   Extract{Wifi,Uwb,Wimax}  [src_page, dst_page] — MPDU body only.
  void on_execute(Op op) override;
  bool work_step() override;
  void on_reconfigured(u8 new_state, const std::vector<Word>& blob) override;

  void scatter_out(std::span<std::pair<u32, Word>> words) override;

  void save_extra(sim::snap::Writer& w) override;
  void load_extra(sim::snap::Reader& r) override;

 private:
  template <class Ar>
  void persist(Ar& ar) {
    persist_streaming(ar);
    ar.io(task_);
    ar.io(stage_);
    ar.io(parse_);
    ar.io(body_page_);
    ar.io(dst_page_);
    ar.io(status_base_);
    ar.io(hdr_bytes_);
    ar.io(status_out_);
    ar.io(status_idx_);
    ar.io(fmt_hdr_len_);
    ar.io(fmt_hcs_len_);
    ar.io(fmt_hcs_in_header_);
  }

  void do_parse();
  void do_extract();

  enum class Task : u8 { Assemble, Parse, Extract };
  Task task_ = Task::Assemble;
  int stage_ = 0;
  bool parse_ = false;
  u32 body_page_ = 0;
  u32 dst_page_ = 0;
  u32 status_base_ = 0;
  Bytes hdr_bytes_;
  std::vector<std::pair<u32, Word>> status_out_;  ///< (ctrl-word index, value).
  std::size_t status_idx_ = 0;  ///< Status words the scatter run has written.

  // Format descriptor (from config blob).
  u32 fmt_hdr_len_ = 0;
  u32 fmt_hcs_len_ = 0;
  bool fmt_hcs_in_header_ = false;
};

}  // namespace drmp::rfu
