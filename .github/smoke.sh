#!/usr/bin/env bash
# Smoke test of the installed patchcc console script, end to end; both CI
# jobs run it as `bash .github/smoke.sh`. It makes a two-illuminant scene set,
# a tiny model per fold, two local maps and three evaluations (one, two
# and five threads) that must agree byte for byte, a 3x3-kernel model
# trained, estimated, mapped and fine-tuned alike on one CPU and on every
# CPU, a kernel-width sweep, and the gradient check.
# The evaluations run all six Minkowski presets (p = 1, 4, 9 and inf;
# n = 0, 1 and 2), whose row-strip sums the tier-1 strip tests also
# compare byte for byte with the whole-image form on the floors job,
# and all four cnn rows. cnn-finetuned is given the fold models too,
# so its median pooling of the shared patch batch must print the
# numbers of the cnn-median row.
set -e
d=$(mktemp -d)
patchcc synth --out "$d/data" --count 3 --size 200x136 --two-illuminant --seed 1
patchcc train --manifest "$d/data/manifest.json" --out-dir "$d/model" \
  --kernel-count 8 --fc-units 6 --epochs 1 --patches-per-image 20
# a model's weights file holds its pool size, so a model trained on
# 16-px patches maps the scene on its 16-px grid with no size flag
patchcc train --manifest "$d/data/manifest.json" --out-dir "$d/model16" \
  --patch-size 16 --pool-size 4 --kernel-count 8 --fc-units 6 --epochs 1 \
  --patches-per-image 20
patchcc local-map --image "$d/data/img_000.ppm" --model "$d/model16/fold0.ccnn" \
  --out-prefix "$d/map16"
test "$(wc -l < "$d/map16.csv")" -eq $((1 + (200 / 16) * (136 / 16)))
# a fold outside 0-2, a repeated fold, a negative seed, a negative
# learning rate, a momentum of 1 or more and a truncated ground-truth
# map: exit status 1 and one line on stderr, with nothing trained or
# written
expect_one_line_error() {
  status=0
  "$@" 2> "$d/err.txt" || status=$?
  cat "$d/err.txt"
  test "$status" -eq 1 && test "$(wc -l < "$d/err.txt")" -eq 1
}
expect_one_line_error patchcc finetune --manifest "$d/data/manifest.json" \
  --model "$d/model/fold0.ccnn" --out "$d/bad.ccnn" --fold 3
expect_one_line_error patchcc train --manifest "$d/data/manifest.json" \
  --out-dir "$d/bad" --folds 0,0
expect_one_line_error patchcc train --manifest "$d/data/manifest.json" \
  --out-dir "$d/bad" --seed -1
expect_one_line_error patchcc train --manifest "$d/data/manifest.json" \
  --out-dir "$d/bad" --lr -1
expect_one_line_error patchcc train --manifest "$d/data/manifest.json" \
  --out-dir "$d/bad" --momentum 1.5
expect_one_line_error patchcc synth --out "$d/bad_synth" --seed -1
head -c 1000 "$d/data/img_000_gt.ppm" > "$d/truncated_gt.ppm"
expect_one_line_error patchcc local-map --image "$d/data/img_000.ppm" \
  --model "$d/model/fold0.ccnn" --out-prefix "$d/bad_map" \
  --gt-map "$d/truncated_gt.ppm"
test ! -e "$d/bad.ccnn"
test ! -e "$d/bad"
test ! -e "$d/bad_synth"
test ! -e "$d/bad_map.ppm"
test ! -e "$d/bad_map.csv"
for run in a b; do
  patchcc local-map --image "$d/data/img_000.ppm" --model "$d/model/fold0.ccnn" \
    --out-prefix "$d/map_$run" --filter median --gt-map "$d/data/img_000_gt.ppm"
done
cmp "$d/map_a.ppm" "$d/map_b.ppm"
cmp "$d/map_a.csv" "$d/map_b.csv"
for threads in 1 2 5; do
  patchcc evaluate --manifest "$d/data/manifest.json" \
    --algos DN,GW,WP,SoG,gGW,GE1,GE2,cnn-patch,cnn-average,cnn-median,cnn-finetuned \
    --model-dir "$d/model" --finetuned-dir "$d/model" \
    --threads "$threads" --out-prefix "$d/eval_$threads"
done
grep -q '^cnn-finetuned,' "$d/eval_1.csv"
diff <(grep '^cnn-median,' "$d/eval_1.csv" | cut -d, -f2-) \
     <(grep '^cnn-finetuned,' "$d/eval_1.csv" | cut -d, -f2-)
for threads in 2 5; do
  for ext in .txt .csv _per_image.csv; do
    cmp "$d/eval_1$ext" "$d/eval_$threads$ext"
  done
done
# an 800x704 scene has 550 grid patches, two forward chunks that run
# from cast to output on two threads: one CPU and every CPU must
# give the same map, summary and estimate. A 1400x936 scene is
# resized to 1200 px first, in row strips spread over the CPUs.
# Estimates print six decimals, so a last-bit difference may not
# show in them; the sha256 of the resized wide scene, of the big
# scene's decoded pixels and float32 patches (both made in row
# strips spread over the CPUs) and of its raw network outputs
# (550 patches, two forward chunks) compare those bytes at full
# precision.
# a k x k model runs the one fused conv-pool layer over each
# pixel's taps: seeded training of a 3x3 model on one CPU and on
# every CPU must write the same weights and log. Its rectified
# cell estimates disagree, so its median map has cells whose
# channel-wise median is direction-free and keeps its estimate
for cpus in one all; do
  run=""
  if [ "$cpus" = one ]; then run="taskset -c 0"; fi
  $run patchcc train --manifest "$d/data/manifest.json" --out-dir "$d/model3_$cpus" \
    --kernel-width 3 --kernel-count 8 --fc-units 6 --epochs 1 \
    --patches-per-image 20 --seed 7
done
for f in "$d"/model3_all/fold*.ccnn "$d/model3_all/train_log.jsonl"; do
  cmp "$f" "$d/model3_one/$(basename "$f")"
done
patchcc synth --out "$d/big" --count 1 --size 800x704 --two-illuminant --seed 2
patchcc synth --out "$d/wide" --count 1 --size 1400x936 --seed 4
for cpus in one all; do
  run=""
  if [ "$cpus" = one ]; then run="taskset -c 0"; fi
  mkdir "$d/$cpus"
  (cd "$d/$cpus"
   $run patchcc local-map --image "$d/big/img_000.ppm" --model "$d/model/fold0.ccnn" \
     --out-prefix map --filter median --gt-map "$d/big/img_000_gt.ppm"
   $run python -c "import sys; from patchcc.evaluation import summarize; \
     from patchcc.image import load_illuminant_map_ppm, load_ppm16; \
     from patchcc.localmap import angular_error_map, estimate_local_map, \
                                  filter_median_3x3, grid_ground_truth; \
     from patchcc.network import load_params; \
     est = filter_median_3x3(estimate_local_map(load_params(sys.argv[1]), \
                                                load_ppm16(sys.argv[2]))); \
     gt = grid_ground_truth(load_illuminant_map_ppm(sys.argv[3]), est.patch_size); \
     print(summarize(angular_error_map(est, gt)[1]))" \
     "$d/model/fold0.ccnn" "$d/big/img_000.ppm" "$d/big/img_000_gt.ppm" > pixel_path.txt
   $run patchcc estimate --image "$d/big/img_000.ppm" --algo cnn \
     --model "$d/model/fold0.ccnn"
   $run patchcc estimate --image "$d/wide/img_000.ppm" --algo cnn \
     --model "$d/model/fold0.ccnn"
   $run patchcc local-map --image "$d/big/img_000.ppm" --model "$d/model3_all/fold0.ccnn" \
     --out-prefix map3 --filter gaussian --gt-map "$d/big/img_000_gt.ppm"
   $run patchcc local-map --image "$d/big/img_000.ppm" --model "$d/model3_all/fold0.ccnn" \
     --out-prefix map3_median --filter median --gt-map "$d/big/img_000_gt.ppm"
   $run patchcc estimate --image "$d/big/img_000.ppm" --algo cnn \
     --model "$d/model3_all/fold0.ccnn"
   $run python -c "import hashlib, sys; from patchcc.image import load_ppm16; \
     from patchcc.patches import resize_max_side; \
     img = resize_max_side(load_ppm16(sys.argv[1]), 1200); \
     print(hashlib.sha256(img.data.tobytes()).hexdigest())" "$d/wide/img_000.ppm"
   $run python -c "import hashlib, sys; from patchcc.image import load_ppm16; \
     from patchcc.estimator import prepared_patches; \
     from patchcc.network import forward, load_params; \
     params = load_params(sys.argv[1]); \
     img = load_ppm16(sys.argv[2]); \
     batch = prepared_patches(img, params.patch_size, resize_target=None, \
                              dtype=params.dtype); \
     raw = forward(params, batch.data); \
     print(*(hashlib.sha256(a.tobytes()).hexdigest() \
             for a in (img.data, batch.data, raw)), sep='\n')" \
     "$d/model/fold0.ccnn" "$d/big/img_000.ppm") > "$d/$cpus.txt"
done
# local-map grids the ground truth from the map file's samples; its
# summary must be the one of the per-pixel path
for cpus in one all; do
  diff "$d/$cpus/pixel_path.txt" <(head -n 1 "$d/$cpus.txt")
done
cmp "$d/one/map.ppm" "$d/all/map.ppm"
cmp "$d/one/map.csv" "$d/all/map.csv"
cmp "$d/one/map3.ppm" "$d/all/map3.ppm"
cmp "$d/one/map3.csv" "$d/all/map3.csv"
cmp "$d/one/map3_median.ppm" "$d/all/map3_median.ppm"
cmp "$d/one/map3_median.csv" "$d/all/map3_median.csv"
diff "$d/one.txt" "$d/all.txt"
# fine-tuning on three 800x704 scenes of 550 patches each, on one
# CPU and on every CPU, must give the same weights and log. The
# package pins numpy's OpenBLAS to one thread, and the K=8 model's
# FC weight gradient may be too small a product for OpenBLAS to
# split anyway; the real gate is the tier-1 test
# test_gradients_are_the_same_bytes_on_one_and_two_blas_threads,
# which sets OpenBLAS to one and then two threads after the import
# (through OPENBLAS_NUM_THREADS where numpy bundles no OpenBLAS)
# and hashes image_level_loss's gradients at each.
patchcc synth --out "$d/tune" --count 3 --size 800x704 --seed 3
for cpus in one all; do
  run=""
  if [ "$cpus" = one ]; then run="taskset -c 0"; fi
  $run patchcc finetune --manifest "$d/tune/manifest.json" \
    --model "$d/model/fold0.ccnn" --out "$d/tuned_$cpus.ccnn" \
    --pooling average --epochs 2
done
cmp "$d/tuned_one.ccnn" "$d/tuned_all.ccnn"
cmp "$d/tuned_one.ccnn.log.jsonl" "$d/tuned_all.ccnn.log.jsonl"
# the 3x3 model fine-tunes through the fused layer's k x k backward:
# one CPU and every CPU must give the same weights and log too
for cpus in one all; do
  run=""
  if [ "$cpus" = one ]; then run="taskset -c 0"; fi
  $run patchcc finetune --manifest "$d/tune/manifest.json" \
    --model "$d/model3_all/fold0.ccnn" --out "$d/tuned3_$cpus.ccnn" \
    --pooling average --epochs 2
done
cmp "$d/tuned3_one.ccnn" "$d/tuned3_all.ccnn"
cmp "$d/tuned3_one.ccnn.log.jsonl" "$d/tuned3_all.ccnn.log.jsonl"
# seeded training on two 200x136 scenes and one 1400x936 scene,
# which is resized to 1200 px before its patches are sampled: two
# runs on every CPU and one on one CPU must write the same weights
# and log. The wide scene takes the place of a scene of the first
# set, whose manifest entry (label and fold) it keeps.
cp -r "$d/data" "$d/mixed"
cp "$d/wide/img_000.ppm" "$d/mixed/img_002.ppm"
for run in all_a all_b one; do
  cpus=""
  if [ "$run" = one ]; then cpus="taskset -c 0"; fi
  $cpus patchcc train --manifest "$d/mixed/manifest.json" --out-dir "$d/train_$run" \
    --kernel-count 8 --fc-units 6 --epochs 2 --patches-per-image 40 --seed 7
done
for run in all_b one; do
  for f in "$d"/train_all_a/fold*.ccnn "$d/train_all_a/train_log.jsonl"; do
    cmp "$f" "$d/train_$run/$(basename "$f")"
  done
done
# width 4 (48 taps) trains and estimates a kernel wider than 27 taps
patchcc sweep --manifest "$d/data/manifest.json" --parameter kernel_width \
  --values 1,3,4 --out "$d/sweep.csv" --kernel-count 8 --fc-units 6 --epochs 1 \
  --patches-per-image 20
patchcc gradcheck
