// Hardware model: GPUs, network tiers, and cluster topology.
//
// The paper's testbed is 8 DGX-1 nodes (64 V100-SXM2-32GB), NVLink inside
// a node, InfiniBand (or, for Figure 7c/8c, Ethernet) between nodes. We
// model a cluster as a regular grid of identical nodes. All bandwidth
// numbers are *effective, achievable* rates (NCCL "bus bandwidth"), not
// marketing peaks; the constants are calibrated so that the simulator
// reproduces the paper's measured operating points (beta_net ~ 4 on
// InfiniBand and ~32 on Ethernet for Sseq=1024, Appendix A.3.1 / Section
// 5.3), and each preset documents the calibration.
#pragma once

#include <string>

#include "common/units.h"

namespace bfpp::hw {

// A GPU (or similar accelerator).
struct GpuSpec {
  std::string name;
  double peak_flops = 0.0;     // dense half-precision tensor flop/s
  double memory_bytes = 0.0;   // device memory capacity
  double hbm_bw = 0.0;         // device memory bandwidth (bytes/s); used to
                               // time memory-bound work (optimizer step)
};

// One tier of the network (intra-node NVLink or inter-node fabric).
// Collective bandwidth is per-GPU ring "bus bandwidth": the time of an
// all-reduce over V bytes of per-GPU payload is modelled as
//   latency-term + payload_bytes_per_gpu / allreduce_bw
// with the ring 2(N-1)/N factors folded into the byte-per-parameter
// constants the collectives module uses (matching how the paper counts
// "8 bytes per parameter per batch", Appendix A.3.1).
struct NetTier {
  std::string name;
  double allreduce_bw = 0.0;   // bytes/s per GPU, collective bus bandwidth
  double p2p_bw = 0.0;         // bytes/s, single point-to-point transfer
  double latency = 0.0;        // seconds, wire + software latency per message
  double sync_overhead = 0.0;  // seconds, per-operation launch/sync cost
  // Per-side cost of a *blocking* point-to-point boundary (Megatron-LM
  // style synchronous exchange): CPU-driven launch, stream flush and
  // rendezvous bookkeeping. Section 5.2 measures this to be far larger
  // than the wire time; Appendix D.2 explains why (synchronizations and
  // allocator stalls). Calibrated so that the depth-first 52B loop sweep
  // (Figure 6) reproduces the paper's ~40% overhead at N_loop = 8.
  double blocking_p2p_overhead = 0.0;
};

// A homogeneous cluster: n_nodes nodes of gpus_per_node GPUs.
struct ClusterSpec {
  std::string name;
  GpuSpec gpu;
  int n_nodes = 1;
  int gpus_per_node = 8;
  NetTier intra_node;  // NVLink
  NetTier inter_node;  // InfiniBand or Ethernet

  [[nodiscard]] int total_gpus() const { return n_nodes * gpus_per_node; }

  // The tier used by a communication group of `span` consecutive devices
  // starting at stride `stride`: if the group fits within one node it uses
  // NVLink, otherwise the inter-node fabric bounds it.
  [[nodiscard]] const NetTier& tier_for_group_extent(int extent) const {
    return extent <= gpus_per_node ? intra_node : inter_node;
  }
};

// GPU presets.
GpuSpec v100_sxm2_32gb();
GpuSpec a100_sxm4_80gb();

// Network tier presets.
NetTier nvlink_v100();
NetTier infiniband_dgx1();
NetTier ethernet_shared();
NetTier nvlink_a100();
NetTier infiniband_dgx_a100();

// The paper's evaluation clusters.
ClusterSpec dgx1_v100_infiniband(int n_nodes = 8);   // Sections 5.1-5.3
ClusterSpec dgx1_v100_ethernet(int n_nodes = 8);     // Figure 7c / 8c
ClusterSpec dgx_a100_infiniband(int n_nodes);        // Appendix A.3 examples

}  // namespace bfpp::hw
