#include "hw/cluster.h"

namespace bfpp::hw {

GpuSpec v100_sxm2_32gb() {
  // 125 Tflop/s fp16 tensor cores; "32 GB" is 32 GiB on device.
  return {"V100-SXM2-32GB", 125.0 * kTflop, 32.0 * kGiB, 900.0 * kGB};
}

GpuSpec a100_sxm4_80gb() {
  // 312 Tflop/s fp16 (the value the paper uses in Appendix A.3).
  return {"A100-SXM4-80GB", 312.0 * kTflop, 80.0 * kGiB, 2039.0 * kGB};
}

NetTier nvlink_v100() {
  // V100 NVLink2: 150 GB/s per direction peak; achieved ring bus bandwidth
  // ~110 GB/s. Single-link p2p ~40 GB/s effective.
  return {"NVLink2", 110.0 * kGB, 40.0 * kGB, 2.0 * kMicrosecond,
          10.0 * kMicrosecond, 400.0 * kMicrosecond};
}

NetTier infiniband_dgx1() {
  // DGX-1: 4x EDR (100 Gb/s) NICs shared by 8 GPUs -> ~6.25 GB/s per GPU
  // per direction physical. Calibration: an effective all-reduce bus
  // bandwidth of 11 GB/s per GPU (full duplex counted once) reproduces the
  // paper's measured beta_net ~ 4 at Sseq=1024 (Section 5.3); p2p gets a
  // single NIC direction share. The 30 us sync overhead reproduces the
  // latency-dominated pipeline-parallel overhead of Section 5.2.
  return {"InfiniBand-EDR", 11.0 * kGB, 6.0 * kGB, 5.0 * kMicrosecond,
          30.0 * kMicrosecond, 1500.0 * kMicrosecond};
}

NetTier ethernet_shared() {
  // Shared datacenter Ethernet (the Figure 7c scenario). Calibrated to
  // reproduce beta_net ~ 32 (Section 5.3): ~8x slower than the InfiniBand
  // tier for collectives, with substantially higher latency.
  return {"Ethernet", 1.4 * kGB, 1.0 * kGB, 30.0 * kMicrosecond,
          60.0 * kMicrosecond, 2500.0 * kMicrosecond};
}

NetTier nvlink_a100() {
  // A100 NVLink3: the paper quotes 559 GB/s total; achieved bus bandwidth
  // ~230 GB/s per direction for collectives.
  return {"NVLink3", 230.0 * kGB, 80.0 * kGB, 2.0 * kMicrosecond,
          8.0 * kMicrosecond, 300.0 * kMicrosecond};
}

NetTier infiniband_dgx_a100() {
  // DGX-A100: 8x HDR NICs for 8 GPUs; the paper quotes 46.6 GB/s total
  // (input+output) per GPU -> ~23 GB/s per direction, ~40 GB/s effective
  // all-reduce bus bandwidth per GPU.
  return {"InfiniBand-HDR", 40.0 * kGB, 20.0 * kGB, 4.0 * kMicrosecond,
          20.0 * kMicrosecond, 900.0 * kMicrosecond};
}

ClusterSpec dgx1_v100_infiniband(int n_nodes) {
  return {"DGX-1 V100 (InfiniBand)", v100_sxm2_32gb(), n_nodes, 8,
          nvlink_v100(), infiniband_dgx1()};
}

ClusterSpec dgx1_v100_ethernet(int n_nodes) {
  return {"DGX-1 V100 (Ethernet)", v100_sxm2_32gb(), n_nodes, 8,
          nvlink_v100(), ethernet_shared()};
}

ClusterSpec dgx_a100_infiniband(int n_nodes) {
  return {"DGX-A100 (InfiniBand)", a100_sxm4_80gb(), n_nodes, 8,
          nvlink_a100(), infiniband_dgx_a100()};
}

}  // namespace bfpp::hw
