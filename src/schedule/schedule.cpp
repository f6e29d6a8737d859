#include "schedule/schedule.h"

#include <algorithm>
#include <cstdint>

#include "common/error.h"

namespace bfpp::schedule {

namespace {

void check_shape(int n_pp, int n_loop, int n_mb) {
  check_config(n_pp >= 1, "schedule: n_pp must be >= 1");
  check_config(n_loop >= 1, "schedule: n_loop must be >= 1");
  check_config(n_mb >= 1, "schedule: n_mb must be >= 1");
}

Schedule make_empty(int n_pp, int n_loop, int n_mb, int passes = 2) {
  Schedule s;
  s.n_pp = n_pp;
  s.n_loop = n_loop;
  s.n_mb = n_mb;
  s.split_backward = passes == 3;
  s.device_ops.resize(static_cast<size_t>(n_pp));
  for (auto& ops : s.device_ops)
    ops.reserve(static_cast<size_t>(passes * n_loop * n_mb));
  return s;
}

// The 1F1B order behind three families: device r warms up with
// min(n_mb, n_pp - r - 1 + extra_warmup) forwards, then alternates one
// forward with the oldest outstanding backward, then drains the
// backwards. A split backward runs B_x in the backward slot and defers
// every B_w to the device's tail, where it blocks nobody upstream.
Schedule one_f_one_b_order(int n_pp, int n_mb, int extra_warmup,
                           bool split_backward) {
  check_shape(n_pp, 1, n_mb);
  Schedule s = make_empty(n_pp, 1, n_mb, split_backward ? 3 : 2);
  const OpKind backward =
      split_backward ? OpKind::kBackwardInput : OpKind::kBackward;
  for (int r = 0; r < n_pp; ++r) {
    auto& ops = s.device_ops[static_cast<size_t>(r)];
    const int warmup = std::min(n_mb, n_pp - r - 1 + extra_warmup);
    for (int m = 0; m < warmup; ++m) ops.push_back({OpKind::kForward, r, m});
    for (int f = warmup; f < n_mb; ++f) {
      ops.push_back({OpKind::kForward, r, f});
      ops.push_back({backward, r, f - warmup});
    }
    for (int m = n_mb - warmup; m < n_mb; ++m) ops.push_back({backward, r, m});
    if (split_backward) {
      for (int m = 0; m < n_mb; ++m)
        ops.push_back({OpKind::kBackwardWeight, r, m});
    }
  }
  return s;
}

}  // namespace

Schedule breadth_first(int n_pp, int n_loop, int n_mb) {
  check_shape(n_pp, n_loop, n_mb);
  Schedule s = make_empty(n_pp, n_loop, n_mb);
  for (int r = 0; r < n_pp; ++r) {
    auto& ops = s.device_ops[static_cast<size_t>(r)];
    // Forward pass: stages in loop order, all micro-batches per stage.
    for (int l = 0; l < n_loop; ++l) {
      const int stage = l * n_pp + r;
      for (int m = 0; m < n_mb; ++m) ops.push_back({OpKind::kForward, stage, m});
    }
    // Backward pass: stages in reverse loop order.
    for (int l = n_loop - 1; l >= 0; --l) {
      const int stage = l * n_pp + r;
      for (int m = 0; m < n_mb; ++m)
        ops.push_back({OpKind::kBackward, stage, m});
    }
  }
  return s;
}

Schedule depth_first(int n_pp, int n_loop, int n_mb) {
  check_shape(n_pp, n_loop, n_mb);
  check_config(n_mb % n_pp == 0,
               "depth-first schedule requires n_mb (%d) divisible by n_pp (%d)",
               n_mb, n_pp);
  // The paper: "N_loop = 1 corresponds to ... 1F1B".
  if (n_loop == 1) {
    return one_f_one_b_order(n_pp, n_mb, 0, /*split_backward=*/false);
  }
  Schedule s = make_empty(n_pp, n_loop, n_mb);
  const int total = n_loop * n_mb;  // chunk-passes per device per direction
  const int group = n_pp * n_loop;  // one "sequence" of chunk-passes

  // Iteration -> (stage, micro-batch) decoding, following the Megatron-LM
  // interleaved schedule: micro-batches advance in groups ("sequences")
  // of n_pp; within a group, all local chunks of the group's micro-batches
  // run before the next group starts.
  auto forward_op = [&](int r, int k) -> Op {
    const int in_group = k % group;
    const int chunk = in_group / n_pp;
    const int mb = (k / group) * n_pp + in_group % n_pp;
    return {OpKind::kForward, chunk * n_pp + r, mb};
  };
  auto backward_op = [&](int r, int k) -> Op {
    const int in_group = k % group;
    const int chunk = n_loop - 1 - in_group / n_pp;
    const int mb = (k / group) * n_pp + in_group % n_pp;
    return {OpKind::kBackward, chunk * n_pp + r, mb};
  };

  for (int r = 0; r < n_pp; ++r) {
    auto& ops = s.device_ops[static_cast<size_t>(r)];
    // Warmup length from Megatron-LM: all-forward when the pipeline is
    // exactly filled, otherwise 2*(n_pp - r - 1) + (n_loop - 1) * n_pp.
    const int warmup =
        n_mb == n_pp
            ? total
            : std::min(total, 2 * (n_pp - r - 1) + (n_loop - 1) * n_pp);
    for (int k = 0; k < warmup; ++k) ops.push_back(forward_op(r, k));
    for (int i = 0; i + warmup < total; ++i) {
      ops.push_back(forward_op(r, warmup + i));
      ops.push_back(backward_op(r, i));
    }
    for (int i = std::max(0, total - warmup); i < total; ++i)
      ops.push_back(backward_op(r, i));
  }
  return s;
}

Schedule gpipe(int n_pp, int n_mb) { return breadth_first(n_pp, 1, n_mb); }

Schedule one_f_one_b(int n_pp, int n_mb) {
  // depth_first with n_loop == 1 is exactly 1F1B, but 1F1B itself has no
  // divisibility constraint, so generate it directly.
  return one_f_one_b_order(n_pp, n_mb, 0, /*split_backward=*/false);
}

Schedule one_f_one_b_async(int n_pp, int n_mb) {
  // PipeDream keeps one more micro-batch in flight than 1F1B: the last
  // device warms up with one forward instead of none.
  return one_f_one_b_order(n_pp, n_mb, 1, /*split_backward=*/false);
}

Schedule unbalanced(int n_pp, int n_mb) {
  Schedule s = one_f_one_b(n_pp, n_mb);
  // The explicit (identity) map is what downstream consumers key on to
  // drop the looping-ownership assumption; the uneven layer partition
  // itself comes from StagePlacement::for_config.
  s.stage_device.resize(static_cast<size_t>(n_pp));
  for (int st = 0; st < n_pp; ++st)
    s.stage_device[static_cast<size_t>(st)] = st;
  return s;
}

Schedule v_schedule(int n_pp, int n_mb, int in_flight_budget) {
  check_shape(n_pp, 2, n_mb);
  const int n_stages = 2 * n_pp;
  Schedule s = make_empty(n_pp, 2, n_mb);
  s.stage_device.resize(static_cast<size_t>(n_stages));
  for (int st = 0; st < n_stages; ++st) {
    s.stage_device[static_cast<size_t>(st)] =
        st < n_pp ? st : n_stages - 1 - st;
  }
  const int budget = in_flight_budget > 0 ? in_flight_budget : n_pp;

  // Deterministic greedy emission: round-robin over devices, each round a
  // device emits at most one op whose dependencies are already emitted.
  // Any emitted order whose ops were ready at emission time is executable
  // under blocking in-order execution, so the result cannot deadlock.
  // Taking the earliest ready micro-batch keeps every stage's forwards and
  // backwards in micro-batch order, so a per-stage count of emitted ops
  // is a cursor to the only candidate of each direction.
  std::vector<int> fwd(static_cast<size_t>(n_stages), 0);
  std::vector<int> bwd(static_cast<size_t>(n_stages), 0);
  std::vector<int> in_flight(static_cast<size_t>(n_pp), 0);
  auto fwd_ready = [&](int st) {
    const int m = fwd[static_cast<size_t>(st)];
    return m < n_mb && (st == 0 || fwd[static_cast<size_t>(st) - 1] > m);
  };
  auto bwd_ready = [&](int st) {
    const int m = bwd[static_cast<size_t>(st)];
    return m < n_mb && fwd[static_cast<size_t>(st)] > m &&
           (st == n_stages - 1 || bwd[static_cast<size_t>(st) + 1] > m);
  };
  // The ready stage of {first, second} with the earlier micro-batch,
  // `first` on a tie; -1 when neither is ready.
  auto earliest = [](const std::vector<int>& next, int first, bool first_ok,
                     int second, bool second_ok) {
    if (!second_ok) return first_ok ? first : -1;
    return first_ok && next[static_cast<size_t>(first)] <=
                           next[static_cast<size_t>(second)]
               ? first
               : second;
  };

  int remaining = 2 * n_stages * n_mb;
  while (remaining > 0) {
    bool progress = false;
    for (int r = 0; r < n_pp; ++r) {
      const int down = r;               // down-leg stage of device r
      const int up = n_stages - 1 - r;  // up-leg stage of device r
      // First ready forward, earliest micro-batch first, down leg before
      // up leg; first ready backward, earliest micro-batch, up leg first.
      const int fwd_st =
          earliest(fwd, down, fwd_ready(down), up, fwd_ready(up));
      const int bwd_st = earliest(bwd, up, bwd_ready(up), down, bwd_ready(down));
      // Prefer backward once the in-flight budget is reached (the
      // controllable-memory knob); fall back to forward to keep global
      // progress whenever no backward is ready.
      const bool take_bwd =
          bwd_st >= 0 &&
          (in_flight[static_cast<size_t>(r)] >= budget || fwd_st < 0);
      if (take_bwd) {
        s.device_ops[static_cast<size_t>(r)].push_back(
            {OpKind::kBackward, bwd_st, bwd[static_cast<size_t>(bwd_st)]++});
        --in_flight[static_cast<size_t>(r)];
      } else if (fwd_st >= 0) {
        s.device_ops[static_cast<size_t>(r)].push_back(
            {OpKind::kForward, fwd_st, fwd[static_cast<size_t>(fwd_st)]++});
        ++in_flight[static_cast<size_t>(r)];
      } else {
        continue;
      }
      --remaining;
      progress = true;
    }
    check(progress, "v_schedule: greedy emission stalled");
  }
  return s;
}

Schedule two_bp(int n_pp, int n_mb) {
  return one_f_one_b_order(n_pp, n_mb, 0, /*split_backward=*/true);
}

Schedule grad_accumulation_depth_first(int n_stages, int n_mb) {
  check_shape(1, n_stages, n_mb);
  Schedule s = make_empty(1, n_stages, n_mb);
  auto& ops = s.device_ops[0];
  for (int m = 0; m < n_mb; ++m) {
    for (int st = 0; st < n_stages; ++st)
      ops.push_back({OpKind::kForward, st, m});
    for (int st = n_stages - 1; st >= 0; --st)
      ops.push_back({OpKind::kBackward, st, m});
  }
  return s;
}

Schedule grad_accumulation_breadth_first(int n_stages, int n_mb) {
  return breadth_first(1, n_stages, n_mb);
}

Schedule make_schedule(parallel::ScheduleKind kind, int n_pp, int n_loop,
                       int n_mb) {
  switch (kind) {
    case parallel::ScheduleKind::kGpipe:
      check_config(n_loop == 1, "GPipe requires n_loop == 1");
      return gpipe(n_pp, n_mb);
    case parallel::ScheduleKind::kOneFOneB:
      check_config(n_loop == 1, "1F1B requires n_loop == 1");
      return one_f_one_b(n_pp, n_mb);
    case parallel::ScheduleKind::kDepthFirst:
      // breadth_first(1, ...) and one_f_one_b(1, ...) already are the
      // Appendix C orders; depth_first's interleaved warmup is not.
      return n_pp == 1 ? grad_accumulation_depth_first(n_loop, n_mb)
                       : depth_first(n_pp, n_loop, n_mb);
    case parallel::ScheduleKind::kBreadthFirst:
      return breadth_first(n_pp, n_loop, n_mb);
    case parallel::ScheduleKind::kOneFOneBAsync:
      check_config(n_loop == 1, "1F1B-async requires n_loop == 1");
      return one_f_one_b_async(n_pp, n_mb);
    case parallel::ScheduleKind::kUnbalanced:
      check_config(n_loop == 1, "Unbalanced requires n_loop == 1");
      return unbalanced(n_pp, n_mb);
    case parallel::ScheduleKind::kVSchedule:
      check_config(n_loop == 2, "V-schedule requires n_loop == 2");
      return v_schedule(n_pp, n_mb);
    case parallel::ScheduleKind::kTwoBP:
      check_config(n_loop == 1, "2BP requires n_loop == 1");
      return two_bp(n_pp, n_mb);
  }
  throw Error("make_schedule: unknown schedule kind");
}

void validate(const Schedule& s) {
  check(static_cast<int>(s.device_ops.size()) == s.n_pp,
        "schedule: device count mismatch");
  const int n_stages = s.n_stages();

  // 1. Placement: the stage->device map must assign every stage to a
  // valid device and leave no device idle (a stage gap on one device
  // means another hosts too much; an empty device is a hole in the
  // pipeline either way).
  if (!s.stage_device.empty()) {
    check(static_cast<int>(s.stage_device.size()) == n_stages,
          "schedule: stage-device map size mismatch");
    for (int d : s.stage_device) {
      check(d >= 0 && d < s.n_pp,
            "schedule: stage mapped to invalid device %d", d);
    }
  }
  std::vector<int> device_of(static_cast<size_t>(std::max(n_stages, 0)));
  std::vector<int> owned(static_cast<size_t>(s.n_pp), 0);
  for (int st = 0; st < n_stages; ++st) {
    device_of[static_cast<size_t>(st)] = s.device_of(st);
    ++owned[static_cast<size_t>(device_of[static_cast<size_t>(st)])];
  }
  for (int r = 0; r < s.n_pp; ++r) {
    check(owned[static_cast<size_t>(r)] >= 1,
          "schedule: device %d hosts no stage (stage gap)", r);
  }

  // 2. Completeness and ownership. One seen-flag per (kind, stage,
  // micro-batch) serves every device: ownership is checked before the
  // flag, so an op can only collide with an op of its own device. A
  // negative shape sizes nothing: every op then fails a range check.
  const auto n_mb = static_cast<size_t>(std::max(s.n_mb, 0));
  const size_t cells = static_cast<size_t>(std::max(n_stages, 0)) * n_mb;
  std::vector<uint8_t> seen(4 * cells, 0);
  for (int r = 0; r < s.n_pp; ++r) {
    const auto& ops = s.device_ops[static_cast<size_t>(r)];
    for (const Op& op : ops) {
      check(op.stage >= 0 && op.stage < n_stages,
            "schedule: stage %d out of range", op.stage);
      check(device_of[static_cast<size_t>(op.stage)] == r,
            "schedule: stage %d does not belong to device %d", op.stage, r);
      check(op.micro_batch >= 0 && op.micro_batch < s.n_mb,
            "schedule: micro-batch out of range");
      if (s.split_backward) {
        check(op.kind != OpKind::kBackward,
              "schedule: fused backward in a split-backward schedule");
      } else {
        check(op.kind != OpKind::kBackwardInput &&
                  op.kind != OpKind::kBackwardWeight,
              "schedule: split backward op in a fused-backward schedule");
      }
      uint8_t& flag = seen[static_cast<size_t>(op.kind) * cells +
                           static_cast<size_t>(op.stage) * n_mb +
                           static_cast<size_t>(op.micro_batch)];
      check(flag == 0, "schedule: duplicate op (stage %d, mb %d)", op.stage,
            op.micro_batch);
      flag = 1;
    }
    // Every op that got this far is distinct.
    const int expected = s.passes() * owned[static_cast<size_t>(r)] * s.n_mb;
    check(static_cast<int>(ops.size()) == expected,
          "schedule: device %d has %zu ops, expected %d", r, ops.size(),
          expected);
  }

  // 3. Executability under blocking in-order execution. This also
  // subsumes local ordering (a B before its own F would deadlock).
  // fwd_done/bwd_done are (stage, micro-batch) grids; bwd_done marks the
  // upstream-blocking backward: kBackward when fused, kBackwardInput when
  // split.
  std::vector<size_t> next(static_cast<size_t>(s.n_pp), 0);
  std::vector<uint8_t> fwd_done(cells, 0);
  std::vector<uint8_t> bwd_done(cells, 0);

  bool progress = true;
  while (progress) {
    progress = false;
    for (int r = 0; r < s.n_pp; ++r) {
      const auto& ops = s.device_ops[static_cast<size_t>(r)];
      while (next[static_cast<size_t>(r)] < ops.size()) {
        const Op& op = ops[next[static_cast<size_t>(r)]];
        const size_t cell = static_cast<size_t>(op.stage) * n_mb +
                            static_cast<size_t>(op.micro_batch);
        bool ready = false;
        switch (op.kind) {
          case OpKind::kForward:
            ready = op.stage == 0 || fwd_done[cell - n_mb];
            break;
          case OpKind::kBackward:
          case OpKind::kBackwardInput:
            ready = fwd_done[cell] &&
                    (op.stage == n_stages - 1 || bwd_done[cell + n_mb]);
            break;
          case OpKind::kBackwardWeight:
            ready = bwd_done[cell];
            break;
        }
        if (!ready) break;
        switch (op.kind) {
          case OpKind::kForward:
            fwd_done[cell] = 1;
            break;
          case OpKind::kBackward:
          case OpKind::kBackwardInput:
            bwd_done[cell] = 1;
            break;
          case OpKind::kBackwardWeight:
            break;  // nothing downstream waits on a weight gradient
        }
        ++next[static_cast<size_t>(r)];
        progress = true;
      }
    }
  }
  for (int r = 0; r < s.n_pp; ++r) {
    check(next[static_cast<size_t>(r)] ==
              s.device_ops[static_cast<size_t>(r)].size(),
          "schedule: deadlock - device %d blocked at op %zu", r,
          next[static_cast<size_t>(r)]);
  }
}

}  // namespace bfpp::schedule
